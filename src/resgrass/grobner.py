"""Sparse polynomials over F_p, packed monomials, and a Buchberger engine.

Monomials are packed into Python ints so that integer comparison realizes the
monomial order directly.  Graded reverse lexicographic follows the Macaulay2
convention: the first ring variable is largest, degrees compare first, and
ties break at the last variable where the exponents differ, smaller exponent
winning.  Exponents and total degrees are capped at 127 per monomial, far
above anything the resonance pipeline produces.

Grevlex is the only order: the ideals of the resonance pipeline are
homogeneous, and their Hilbert polynomial does not depend on the order.
The Buchberger loop takes homogeneous generators only.  It prunes S-pairs
with the Gebauer-Moeller criteria, applied as numpy masks over exponent
rows, picks pairs by smallest lcm, and reduces whole coefficient vectors
per degree with numpy, for moduli up to field.MAX_KERNEL_MODULUS.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement

import numpy as np

from .field import DEFAULT_MODULUS, check_kernel_modulus, is_prime

_W = 8
_CAP = 127


class GrevlexOrder:
    """Degree-prefixed complement digits: bigger packed int = bigger monomial."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._degshift = _W * nvars
        self.offset = sum(_CAP << (_W * i) for i in range(nvars))
        self.one = self.offset
        self._guards = sum(0x80 << (_W * i) for i in range(nvars))
        self._chk = self._guards

    def pack(self, exps) -> int:
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        deg = 0
        key = 0
        for i, e in enumerate(exps):
            if not 0 <= e <= _CAP:
                raise OverflowError(f"exponent {e} outside 0..{_CAP}")
            deg += e
            key |= (_CAP - e) << (_W * i)
        if deg > _CAP:
            raise OverflowError(f"total degree {deg} over the cap {_CAP}")
        return key | (deg << self._degshift)

    def pack_combo(self, combo) -> int:
        """Pack a multiset of variable indices (len = total degree)."""
        key = self.offset + (len(combo) << self._degshift)
        for v in combo:
            key -= 1 << (_W * v)
        return key

    def unpack(self, key: int):
        return tuple(
            _CAP - ((key >> (_W * i)) & 0xFF) for i in range(self.nvars)
        )

    def degree(self, key: int) -> int:
        return key >> self._degshift

    def mul(self, a: int, b: int) -> int:
        k = a + b - self.offset
        if (k >> self._degshift) > _CAP:
            raise OverflowError(f"product degree over the cap {_CAP}")
        return k

    def quo(self, a: int, b: int) -> int:
        """a / b for b dividing a."""
        return a - b + self.offset

    def divides(self, b: int, a: int) -> bool:
        # per-slot digit_b >= digit_a, checked in parallel via guard bits;
        # complement digits stay below 0x80, so no borrow crosses a slot
        return (b + self._guards - a) & self._chk == self._chk


class PolyRing:
    """F_p[x_0 .. x_{nvars-1}] under grevlex."""

    def __init__(self, nvars: int, p: int = DEFAULT_MODULUS, *, names=None):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.nvars = nvars
        self.p = p
        self.ord = GrevlexOrder(nvars)
        self.names = tuple(names) if names else tuple(f"x{i}" for i in range(nvars))
        if len(self.names) != nvars:
            raise ValueError("wrong number of variable names")

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self.ord.one: 1})

    def var(self, i: int) -> "Poly":
        return Poly(self, {self.ord.pack_combo((i,)): 1})

    def from_exp_terms(self, terms: dict) -> "Poly":
        return Poly(self, {self.ord.pack(e): c for e, c in terms.items()})

    def linear_form(self, coeffs) -> "Poly":
        return Poly(self, {self.ord.pack_combo((i,)): c for i, c in enumerate(coeffs)})

    def __repr__(self):
        return f"PolyRing(nvars={self.nvars}, p={self.p})"


class PluckerRing(PolyRing):
    """Coordinate ring of P(Lambda^2 F^n): one variable w_{i}_{j} per pair i<j."""

    def __init__(self, n: int, p: int = DEFAULT_MODULUS):
        if n < 2:
            raise ValueError("need at least two hyperplanes")
        pairs = tuple(combinations(range(n), 2))
        names = tuple(f"w_{i}_{j}" for i, j in pairs)
        super().__init__(len(pairs), p, names=names)
        self.n = n
        self.pairs = pairs
        self.pair_index = {pr: k for k, pr in enumerate(pairs)}

    def pair_var(self, i: int, j: int) -> "Poly":
        return self.var(self.pair_index[(min(i, j), max(i, j))])


class Poly:
    """Immutable-ish sparse polynomial: dict of packed monomial -> coeff in [1, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        p = ring.p
        self.terms = {k: c % p for k, c in terms.items() if c % p}

    def is_zero(self) -> bool:
        return not self.terms

    def lead_key(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return max(self.terms)

    def lead_coeff(self) -> int:
        return self.terms[self.lead_key()]

    def lead_exponents(self):
        return self.ring.ord.unpack(self.lead_key())

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        inv = pow(self.lead_coeff(), self.ring.p - 2, self.ring.p)
        return Poly(self.ring, {k: c * inv for k, c in self.terms.items()})

    def degree(self) -> int:
        if not self.terms:
            return -1
        return self.ring.ord.degree(max(self.terms))

    def is_homogeneous(self) -> bool:
        o = self.ring.ord
        degs = {o.degree(k) for k in self.terms}
        return len(degs) <= 1

    def scale(self, c: int) -> "Poly":
        return Poly(self.ring, {k: v * c for k, v in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return Poly(self.ring, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) - v
        return Poly(self.ring, terms)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        mul = self.ring.ord.mul
        terms: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = mul(ka, kb)
                terms[k] = terms.get(k, 0) + ca * cb
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def evaluate(self, vals) -> int:
        p = self.ring.p
        total = 0
        for key, c in self.terms.items():
            prod = c
            for i, e in enumerate(self.ring.ord.unpack(key)):
                if e:
                    prod = prod * pow(vals[i], e, p) % p
            total += prod
        return total % p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        p = self.ring.p
        names = self.ring.names
        bits = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            if c > p // 2:
                c -= p
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, self.ring.ord.unpack(key))
                if e
            )
            if not mono:
                bits.append(f"{'+' if c > 0 else '-'} {abs(c)}")
            elif abs(c) == 1:
                bits.append(f"{'+' if c > 0 else '-'} {mono}")
            else:
                bits.append(f"{'+' if c > 0 else '-'} {abs(c)}*{mono}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def plucker_ideal(ring: PolyRing, coords=None):
    """The three-term quadrics cutting out G(2, n), one per 4-subset of indices.

    coords maps each pair (i, j), i < j < n, to the polynomial standing for
    the Plucker coordinate w_ij; by default these are the variables of a
    PluckerRing.  Given linear forms pull the quadrics back along them, and
    quadrics that vanish there are left out.
    """
    if coords is None:
        coords = {pr: ring.var(k) for k, pr in enumerate(ring.pairs)}
    n = 1 + max(j for _, j in coords)
    out = []
    for a, b, c, d in combinations(range(n), 4):
        q = (
            coords[a, b] * coords[c, d]
            - coords[a, c] * coords[b, d]
            + coords[a, d] * coords[b, c]
        )
        if not q.is_zero():
            out.append(q)
    return out


class _DivisorIndex:
    """First basis element whose lead divides a query monomial, with caching.

    The negative cache stores how many elements have been checked, so
    appending new elements never requires invalidation.
    """

    def __init__(self, ord_, leads=()):
        self.ord = ord_
        self.leads = list(leads)
        self._pos: dict = {}
        self._neg: dict = {}

    def append(self, lead: int):
        self.leads.append(lead)

    def find(self, m: int):
        gi = self._pos.get(m)
        if gi is not None:
            return gi
        leads = self.leads
        divides = self.ord.divides
        for gi in range(self._neg.get(m, 0), len(leads)):
            if divides(leads[gi], m):
                self._pos[m] = gi
                return gi
        self._neg[m] = len(leads)
        return None


def _nf_terms(terms, basis_terms, index: _DivisorIndex, lcinvs, ord_, p: int):
    """Full normal form of a term dict against an indexed basis."""
    work = {k: c % p for k, c in terms.items() if c % p}
    out: dict = {}
    heap = [-k for k in work]
    heapify(heap)
    mul = ord_.mul
    quo = ord_.quo
    while heap:
        k = -heappop(heap)
        c = work.pop(k, 0) % p
        if not c:
            continue
        gi = index.find(k)
        if gi is None:
            out[k] = c
            continue
        q = quo(k, index.leads[gi])
        f = c * lcinvs[gi] % p
        for kg, cg in basis_terms[gi]:
            kk = mul(q, kg)
            if kk == k:
                continue
            cur = work.get(kk)
            if cur is None:
                work[kk] = -f * cg
                heappush(heap, -kk)
            else:
                work[kk] = cur - f * cg
    return out


def normal_form(f: Poly, gens) -> Poly:
    """Remainder of f on division by gens (a GroebnerBasis or iterable of Poly).

    Every monomial of the result is irreducible; the result is canonical when
    gens is a Groebner basis.
    """
    if isinstance(gens, GroebnerBasis):
        gens = gens.gens
    gens = [g for g in gens if g.terms]
    ring = f.ring
    if not gens:
        return f
    index = _DivisorIndex(ring.ord, [g.lead_key() for g in gens])
    basis_terms = [list(g.terms.items()) for g in gens]
    lcinvs = [pow(g.lead_coeff(), ring.p - 2, ring.p) for g in gens]
    return Poly(ring, _nf_terms(f.terms, basis_terms, index, lcinvs, ring.ord, ring.p))


_BLOCK = 1 << 15  # bytes per temporary of a blocked divisibility test


def _has_divisor(rows, divisors):
    """Which rows have a divisor among divisors, both as complement digits.

    A monomial divides another when none of its complement digits is
    smaller.  Rows are tested in blocks, so temporaries stay under _BLOCK.
    """
    out = np.zeros(len(rows), bool)
    if len(divisors):
        step = max(1, _BLOCK // divisors.size)
        for s in range(0, len(rows), step):
            ge = divisors >= rows[s : s + step, None, :]
            out[s : s + step] = ge.all(axis=2).any(axis=1)
    return out


class _PairSet:
    """Gebauer-Moeller managed S-pair queue, popping smallest (lcm, i, j) first.

    Monomials are rows of the complement digits of their grevlex keys, so an
    lcm is an elementwise minimum, and each criterion is one array mask over
    all candidates.  Only the lcms that survive are packed into keys for the
    heap.  The counters say how many candidate pairs were created and how
    many each criterion pruned.
    """

    def __init__(self, ord_):
        self.ord = ord_
        # one row per lead, then spare rows; arrays sized by capacity rather
        # than by count keep numpy's per-size cache of small blocks small
        self.digits = np.full((16, ord_.nvars), _CAP)
        self.degs: list[int] = []
        self.heap: list = []  # (lcm key, i, j, pair id)
        self.pairs = np.zeros((64, 3), np.int64)  # i, j, lcm degree by pair id
        self.live = np.zeros(64, bool)
        self.npairs = 0
        self.created = self.pruned_chain = self.pruned_lcm = self.pruned_coprime = 0

    def add_element(self, lead: int):
        n = self.ord.nvars
        t = len(self.degs)
        c = np.array(list(lead.to_bytes(n + 1, "little")[:n]))
        cdeg = self.ord.degree(lead)
        lcms = np.minimum(self.digits, c)
        ldeg = _CAP * n - lcms.sum(axis=1)
        ldeg[t:] = -1

        # chain criterion: the new lead retires a queued pair (i, j) when it
        # divides the lcm and neither lcm(i, t) nor lcm(j, t) equals it; both
        # divide it then, so "equal" is "of equal degree"
        qi, qj, qdeg = self.pairs.T
        hit = np.flatnonzero(self.live & (ldeg[qi] < qdeg) & (ldeg[qj] < qdeg))
        qlcm = np.minimum(self.digits[qi[hit]], self.digits[qj[hit]])
        hit = hit[_has_divisor(qlcm, c[None])]
        self.live[hit] = False
        self.pruned_chain += len(hit)

        # lcm-divisor criterion: drop (i, t) when some lcm(j, t) strictly
        # divides lcm(i, t), that is lead j divides it and has a smaller lcm
        # degree.  If such a j exists, one that survives does too, so
        # candidates are tested by ascending degree against the survivors.
        keep = np.zeros(len(ldeg), bool)
        for d in sorted(set(ldeg[:t].tolist())):
            level = np.flatnonzero(ldeg == d)
            keep[level[~_has_divisor(lcms[level], self.digits[keep])]] = True
        idx = np.flatnonzero(keep)
        self.created += t
        self.pruned_lcm += t - len(idx)

        # one pair per distinct lcm, with the smallest i; none when some pair
        # with that lcm has coprime leads, since its S-poly reduces to zero
        groups: dict = {}
        for i, row, d in zip(idx.tolist(), lcms[idx].tolist(), ldeg[idx].tolist()):
            key = int.from_bytes(bytes(row + [d]), "little")
            g = groups.setdefault(key, [i, False, 0])
            g[1] |= d == self.degs[i] + cdeg
            g[2] += 1
        for key, (i, cop, size) in groups.items():
            if cop:
                self.pruned_coprime += size
                continue
            self.pruned_lcm += size - 1
            k = self.npairs
            if k == len(self.live):
                self.pairs = np.concatenate([self.pairs, np.zeros_like(self.pairs)])
                self.live = np.concatenate([self.live, np.zeros_like(self.live)])
            self.pairs[k] = i, t, self.ord.degree(key)
            self.live[k] = True
            self.npairs += 1
            heappush(self.heap, (key, i, t, k))
        if t == len(self.digits):
            self.digits = np.concatenate([self.digits, np.full_like(self.digits, _CAP)])
        self.digits[t] = c
        self.degs.append(cdeg)

    def pop(self):
        """(i, j, lcm key) of the live pair with the smallest (lcm, i, j), or None."""
        while self.heap:
            key, i, j, k = heappop(self.heap)
            if self.live[k]:
                self.live[k] = False
                return i, j, key
        return None


def _first_nonzero(v, i: int) -> int:
    n = v.shape[0]
    step = 1024
    while i < n:
        j = min(i + step, n)
        chunk = v[i:j]
        if chunk.any():
            return i + int((chunk != 0).argmax())
        i = j
    return -1


class _VecEngine:
    """Buchberger for homogeneous input: per-degree dense int64 reduction.

    Vectors are reduced mod p lazily: an update moves an entry by less than
    (p - 1)^2, so room updates keep every entry inside int64.
    """

    def __init__(self, ring, polys):
        check_kernel_modulus(ring.p)
        self.ring = ring
        self.p = ring.p
        self.room = (np.iinfo(np.int64).max - ring.p) // (ring.p - 1) ** 2
        self.ord = ring.ord
        active = set()
        for g in polys:
            for key in g.terms:
                for i, e in enumerate(ring.ord.unpack(key)):
                    if e:
                        active.add(i)
        self.active = sorted(active)
        self.tables: dict = {}
        self.terms: list = []  # list of [(key, coeff)] per basis element, monic
        self.index = _DivisorIndex(self.ord)
        self.pairs = _PairSet(self.ord)
        self._rcache: dict = {}
        self.reductions = self.zero_reductions = 0

    def _table(self, deg: int):
        tab = self.tables.get(deg)
        if tab is None:
            pack = self.ord.pack_combo
            keys = sorted(
                (pack(c) for c in combinations_with_replacement(self.active, deg)),
                reverse=True,
            )
            tab = (keys, {k: i for i, k in enumerate(keys)})
            self.tables[deg] = tab
        return tab

    def _reducer(self, gi: int, m: int, deg: int):
        q = self.ord.quo(m, self.index.leads[gi])
        ck = (gi, q)
        rc = self._rcache.get(ck)
        if rc is None:
            mul = self.ord.mul
            pos = self._table(deg)[1]
            terms = self.terms[gi]
            idxs = np.empty(len(terms), np.intp)
            coefs = np.empty(len(terms), np.int64)
            for t, (k, c) in enumerate(terms):
                idxs[t] = pos[mul(q, k)]
                coefs[t] = c
            rc = (idxs, coefs)
            self._rcache[ck] = rc
        return rc

    def _reduce_vec(self, v, deg: int, start: int = 0):
        """In-place reduction; returns remainder terms in descending order."""
        keys = self._table(deg)[0]
        p = self.p
        find = self.index.find
        room = self.room
        i = start
        while True:
            i = _first_nonzero(v, i)
            if i < 0:
                break
            c = int(v[i]) % p
            if c == 0:
                v[i] = 0
                i += 1
                continue
            gi = find(keys[i])
            if gi is None:
                v[i] = c
                i += 1
                continue
            idxs, coefs = self._reducer(gi, keys[i], deg)
            v[idxs] -= c * coefs
            v[i] = 0
            i += 1
            room -= 1
            if not room:
                v %= p
                room = self.room
        nz = np.nonzero(v)[0]
        return [(keys[j], int(v[j])) for j in nz]

    def _append(self, items):
        lead, lc = items[0]
        p = self.p
        inv = pow(lc, p - 2, p)
        self.terms.append([(k, c * inv % p) for k, c in items])
        self.index.append(lead)
        self.pairs.add_element(lead)

    def add_input(self, g: Poly):
        deg = g.degree()
        keys, pos = self._table(deg)
        v = np.zeros(len(keys), np.int64)
        for k, c in g.terms.items():
            v[pos[k]] += c
        r = self._reduce_vec(v, deg)
        if r:
            self._append(r)

    def run(self):
        while (pr := self.pairs.pop()) is not None:
            i, j, l = pr
            deg = self.ord.degree(l)
            keys, pos = self._table(deg)
            ia, ca = self._reducer(i, l, deg)
            ib, cb = self._reducer(j, l, deg)
            v = np.zeros(len(keys), np.int64)
            v[ia] += ca
            v[ib] -= cb
            r = self._reduce_vec(v, deg, pos[l])
            self.reductions += 1
            if r:
                self._append(r)
            else:
                self.zero_reductions += 1
        return [Poly(self.ring, dict(t)) for t in self.terms]


def _interreduce(polys):
    """Reduced basis from a Groebner basis: minimal leads, reduced tails."""
    polys = sorted((g for g in polys if g.terms), key=lambda g: g.lead_key())
    if not polys:
        return []
    ring = polys[0].ring
    ord_, p = ring.ord, ring.p
    kept = []
    for g in polys:
        lk = g.lead_key()
        if any(ord_.divides(h.lead_key(), lk) for h in kept):
            continue
        kept.append(g.monic())
    index = _DivisorIndex(ord_, [g.lead_key() for g in kept])
    lcinvs = [1] * len(kept)
    while True:
        changed = False
        terms_list = [list(g.terms.items()) for g in kept]
        for i, g in enumerate(kept):
            lk = g.lead_key()
            tail = {k: c for k, c in g.terms.items() if k != lk}
            red = _nf_terms(tail, terms_list, index, lcinvs, ord_, p)
            red[lk] = 1
            if red != g.terms:
                kept[i] = Poly(ring, red)
                changed = True
        if not changed:
            return kept


class GroebnerBasis:
    """Reduced Groebner basis: monic generators sorted by ascending lead."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = tuple(gens)

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        return self.gens[i]

    def contains(self, f: Poly) -> bool:
        return normal_form(f, self.gens).is_zero()

    def lead_exponents(self):
        return [g.lead_exponents() for g in self.gens]

    def __repr__(self):
        return f"GroebnerBasis({len(self.gens)} generators over {self.ring!r})"


def buchberger(gens, ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic: equal input ideals over the same ring produce identical
    output, and reduced bases are unique, so any correct engine must agree.
    Inhomogeneous generators raise ValueError.
    """
    polys = [g for g in gens if g is not None and not g.is_zero()]
    if ring is None:
        if not polys:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = polys[0].ring
    if any(g.ring is not ring for g in polys):
        raise ValueError("generators live in different rings")
    if not polys:
        return GroebnerBasis(ring, [])
    if not all(g.is_homogeneous() for g in polys):
        raise ValueError("buchberger takes homogeneous generators only")
    eng = _VecEngine(ring, polys)
    for g in sorted(polys, key=lambda g: (g.degree(), g.lead_key())):
        eng.add_input(g)
    reduced = _interreduce(eng.run())
    return GroebnerBasis(ring, sorted(reduced, key=lambda g: g.lead_key()))
