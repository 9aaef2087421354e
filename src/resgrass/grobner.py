"""Sparse polynomials over F_p, packed monomials, and an F4-style Buchberger engine.

Monomials are packed into Python ints so that integer comparison realizes the
monomial order directly.  Graded reverse lexicographic follows the Macaulay2
convention: the first ring variable is largest, degrees compare first, and
ties break at the last variable where the exponents differ, smaller exponent
winning.  Exponents and total degrees are capped at 127 per monomial, far
above anything the resonance pipeline produces; a product or an S-pair past
the cap raises OverflowError.

Grevlex is the only order: the ideals of the resonance pipeline are
homogeneous, and their Hilbert polynomial does not depend on the order.
The engine takes homogeneous generators only.  As in Faugere's F4, it
reduces each degree's inputs and S-pairs as one matrix, and the basis comes
out reduced; it is exact for moduli up to field.MAX_KERNEL_MODULUS.  Each
degree's new leads go to the pair set in one batch, and one pass blocked
under _BLOCK prunes their S-pairs by the Gebauer-Moeller lcm-divisor and
coprime criteria, as integer numpy masks without BLAS.  normal_form reads
its remainders off the same reducer table the engine builds per degree.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from itertools import combinations

import numpy as np

from .field import _BLOCK, DEFAULT_MODULUS, _add_rows, check_kernel_modulus, is_prime, rref_mod
from .field import solve_levels

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

    def exponent(self, key: int, v: int) -> int:
        return _CAP - ((key >> (_W * v)) & 0xFF)

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
        return (b + self._guards - a) & self._guards == self._guards


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


def _digits(keys, n: int):
    """The complement digits of packed keys in n variables, one uint8 row each."""
    buf = b"".join(k.to_bytes(n + 1, "little") for k in keys)
    return np.frombuffer(buf, np.uint8).reshape(-1, n + 1)[:, :n]


def _first_divisor(rows, divisors):
    """Index of the first divisor of each row among divisors, or -1.

    Both are complement digits, and a monomial divides another when none of
    its complement digits is smaller.  Rows are tested in blocks, so
    temporaries stay under _BLOCK.
    """
    out = np.full(len(rows), -1)
    if len(divisors):
        step = max(1, _BLOCK // divisors.size)
        for s in range(0, len(rows), step):
            hit = (divisors >= rows[s : s + step, None, :]).all(axis=2)
            first = hit.argmax(axis=1)
            out[s : s + step] = np.where(hit[np.arange(len(first)), first], first, -1)
    return out


def _threshold_bits(digits):
    """Rows of bits [e_v > k], for k below the largest exponent of x_v in any row.

    A row j divides a monomial m whose exponents stay within those of the
    rows exactly when bits_j & ~bits_m == 0, and the bits of an lcm are the
    or of its factors' bits.  The bits go in as many uint64 words per row as
    they take.
    """
    nrows, n = digits.shape
    top = _CAP - digits.min(axis=0, initial=_CAP).astype(np.int64)
    var = np.repeat(np.arange(n), top)
    k = np.arange(len(var)) - np.repeat(np.cumsum(top) - top, top)
    out = np.zeros((nrows, 8 * (-(-len(var) // 64) or 1)), np.uint8)
    step = max(1, _BLOCK // max(1, len(var)))
    for s in range(0, nrows, step):
        bits = _CAP - digits[s : s + step, var] > k
        packed = np.packbits(bits, axis=1)
        out[s : s + step, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _strictly_divided(ld, bits, bt):
    """For each lead i of bits, whether the lcm with lead t of another strictly divides lcm(i, t).

    ld holds the lcm degrees with lead t, bits the threshold bits of the
    leads and bt those of t.  Leads above the least degree are tested
    against those below the largest, in blocks that keep temporaries under
    _BLOCK.
    """
    out = np.zeros(len(ld), bool)
    cand = np.flatnonzero(ld > ld.min())
    low = np.flatnonzero(ld < ld.max())
    dbits, dl = bits[low], ld[low]
    mbits = ~(bits[cand] | bt)
    step = max(1, _BLOCK // max(1, dbits.nbytes))
    for s in range(0, len(cand), step):
        c = cand[s : s + step]
        hit = ((dbits & mbits[s : s + step, None]) == 0).all(axis=2) & (dl < ld[c, None])
        out[c] = hit.any(axis=1)
    return out


class _PairSet:
    """S-pair queue popping smallest (lcm, i, j) first, pruned a degree's leads at a time.

    The engine hands over each degree's new leads in one add_elements call.
    Monomials are rows of the complement digits of their grevlex keys, so an
    lcm is an elementwise minimum.  The Gebauer-Moeller criteria on the new
    pairs are array masks, taken in blocks of leads that keep every
    temporary under _BLOCK; the divisor test runs on packed threshold bits
    in integer numpy ops, without BLAS.  Only the lcms that survive are
    packed into keys for the heap, and a queued pair is never retired: the
    engine reduces a whole degree at once, where a pair that would reduce to
    zero costs one more zero row.  The counters say how many candidate pairs
    were created and how many each criterion pruned.
    """

    def __init__(self, ord_):
        self.ord = ord_
        # one row per lead, then spare rows; arrays sized by capacity rather
        # than by count keep numpy's per-size cache of small blocks small
        self.digits = np.full((16, ord_.nvars), _CAP, dtype=np.uint8)
        self.degs: list[int] = []
        self.heap: list = []  # (lcm key, i, j)
        self.created = self.pruned_lcm = self.pruned_coprime = 0

    def add_elements(self, leads):
        """Queue the pairs of each lead with every earlier one, earlier leads of the batch too.

        The result is that of adding the leads one at a time, in order.
        """
        if not leads:
            return
        n = self.ord.nvars
        t0, t1 = len(self.degs), len(self.degs) + len(leads)
        if t1 > len(self.digits):
            grown = np.full((2 * t1, n), _CAP, np.uint8)
            grown[:t0] = self.digits[:t0]
            self.digits = grown
        self.digits[t0:t1] = _digits(leads, n)
        self.degs += [self.ord.degree(k) for k in leads]
        digits = self.digits[:t1]
        bits = _threshold_bits(digits)
        degs = np.array(self.degs, np.int32)
        step = max(1, _BLOCK // (t1 * max(n, bits[0].nbytes)))
        for a in range(t0, t1, step):
            b = min(a + step, t1)
            ldeg = np.minimum(digits[a:b, None], digits[None, :b]).sum(axis=2, dtype=np.int32)
            np.subtract(_CAP * n, ldeg, out=ldeg)
            # lcm-divisor criterion: drop (i, t) when lcm(j, t) strictly
            # divides lcm(i, t) for some j < t.  It does when the bits lead j
            # has beyond those of lead t lie in lcm(i, t) and are fewer than
            # those of i; above, the lcm degree less that of t, counts them.
            # A j with above = 0 divides lead t and drops every pair with
            # above > 0.  The j with above = 1 have one bit each: one mask of
            # them drops every pair with above > 1 whose lcm holds one.
            above = ldeg - degs[a:b, None]
            pair = np.arange(b) < np.arange(a, b)[:, None]  # i < t
            one = np.where((pair & (above == 1))[..., None], bits[:b], np.uint64(0))
            mask = np.bitwise_or.reduce(one, axis=1) & ~bits[a:b]
            dead = ~pair | (above > 1) & (bits[:b] & mask[:, None]).any(axis=2)
            dead |= (pair & (above == 0)).any(axis=1, keepdims=True) & (above > 0)
            # a j those rules dropped drops no pair they did not, so only the
            # survivors with above > 1 are left to test against each other
            multi = ~dead & (above > 1)
            lows = np.where(multi, above, 2 * _CAP).min(axis=1)
            highs = np.where(multi, above, -1).max(axis=1)
            for r in np.flatnonzero(lows < highs).tolist():
                m = np.flatnonzero(multi[r])
                dead[r, m] = _strictly_divided(above[r, m], bits[m], bits[a + r])
            r, i = np.nonzero(~dead)
            self.created += sum(range(a, b))
            self.pruned_lcm += sum(range(a, b)) - len(i)
            d = ldeg[r, i]
            cop = (d == degs[i] + degs[r + a]).tolist()
            lcms = np.minimum(digits[r + a], digits[i])
            buf = np.concatenate([lcms, d[:, None].astype(np.uint8)], axis=1).tobytes()

            # one pair per lead and distinct lcm, with the smallest i; none
            # when some pair with that lcm has coprime leads, since its
            # S-poly reduces to zero
            groups: dict = {}
            w = n + 1
            for e, (t, j) in enumerate(zip((r + a).tolist(), i.tolist())):
                key = int.from_bytes(buf[e * w : e * w + w], "little")
                g = groups.setdefault((key, t), [j, False, 0])
                g[1] |= cop[e]
                g[2] += 1
            for (key, t), (j, c, size) in groups.items():
                if c:
                    self.pruned_coprime += size
                    continue
                self.pruned_lcm += size - 1
                heappush(self.heap, (key, j, t))

    def min_degree(self) -> int:
        """The lcm degree of the pair pop returns next, or _CAP + 1 when none is left."""
        return self.ord.degree(self.heap[0][0]) if self.heap else _CAP + 1

    def pop(self):
        """(i, j, lcm key) of the pair with the smallest (lcm, i, j), or None."""
        if not self.heap:
            return None
        key, i, j = heappop(self.heap)
        return i, j, key


def _clear(mat, cols, rows, p: int):
    """mat -= mat[:, cols] @ rows mod p in place: zero cols, for echelon rows pivoting there."""
    r, k = np.nonzero(mat[:, cols])
    coef = p - mat[r, np.array(cols, np.int64)[k]]
    _add_rows(mat, r, k, coef, rows, p)


class _F4Engine:
    """Buchberger for homogeneous input, one Macaulay matrix per degree (F4).

    The rows of degree d, lowest first, are its input generators and every
    S-pair whose lcm has degree d.  Symbolic preprocessing gives each
    monomial they reach that a lead divides one reducer, and the reducers
    make a table of normal forms over the other columns (the pivot and
    non-pivot split of Faugere-Lachartre).  Rows mapped through the table
    go through rref_mod; the nonzero ones are the new elements, and since
    they are in reduced echelon form over non-pivot columns, the basis is
    reduced as it grows.
    """

    def __init__(self, ring, polys):
        check_kernel_modulus(ring.p)
        self.ring = ring
        self.ord, self.p = ring.ord, ring.p
        self.inputs: dict = {}
        for g in polys:
            self.inputs.setdefault(g.degree(), []).append(g)
        self.pairs = _PairSet(self.ord)
        self.leads: list[int] = []
        self.tails: list = []  # (keys, coefficients) past the lead of each monic element
        # rows, zero rows, monomials reached, non-pivot columns, new elements
        self.degrees: dict = {}
        self.reductions = self.zero_reductions = 0  # S-pairs
        self.pair_s = 0.0  # seconds in the pair-set passes

    def run(self):
        while (d := min([*self.inputs, self.pairs.min_degree()])) <= _CAP:
            rows = [(list(g.terms), list(g.terms.values())) for g in self.inputs.pop(d, ())]
            nin = len(rows)
            while self.pairs.min_degree() == d:
                i, j, l = self.pairs.pop()
                (ki, ci), (kj, cj) = self.tails[i], self.tails[j]
                qi, qj = l - self.leads[i], l - self.leads[j]
                # the leads cancel, so the S-polynomial is the two tails
                rows.append(([qi + t for t in ki] + [qj + t for t in kj], ci + [-c for c in cj]))
            leads = self._reduce(d, rows, nin)
            t0 = time.perf_counter()
            self.pairs.add_elements(leads)
            self.pair_s += time.perf_counter() - t0
        if self.pairs.pop() is not None:
            # its S-polynomial has monomials the packing cannot hold
            raise OverflowError(f"S-pair degree over the cap {_CAP}")
        basis = [Poly(self.ring, {m: 1, **dict(zip(*t))}) for m, t in zip(self.leads, self.tails)]
        return sorted(basis, key=Poly.lead_key)

    def _reducers(self, rows, divisors):
        """(reached monomials, the basis element reducing each one a lead divides).

        divisors holds the digit rows of the leads, and the first of them
        that divides a monomial gives its reducer.
        """
        n = self.ord.nvars
        reached = {k for keys, _ in rows for k in keys}
        todo = list(reached)
        reducer: dict = {}
        while todo:
            found = []
            for m, e in zip(todo, _first_divisor(_digits(todo, n), divisors).tolist()):
                if e < 0:
                    continue
                reducer[m] = e
                q = m - self.leads[e]
                for t in self.tails[e][0]:
                    if (mt := q + t) not in reached:
                        reached.add(mt)
                        found.append(mt)
            todo = found
        return reached, reducer

    def _table(self, rows, divisors):
        """Symbolic preprocessing of rows and the reducer table of F4.

        Returns the non-pivot columns, descending, the count of monomials
        reached, and forms, which maps sparse rows over the reached
        monomials to their normal forms as a matrix over those columns.
        """
        p = self.p
        reached, reducer = self._reducers(rows, divisors)
        # pivot monomials ascending, then the other columns descending
        piv = sorted(reducer)
        cols = sorted(reached.difference(reducer), reverse=True)
        npiv, ncol = len(piv), len(cols)
        index = {m: i for i, m in enumerate(piv + cols)}

        def entries(sparse):
            # a matrix of the non-pivot entries, and the others as arrays
            grp, keys, coefs = [], [], []
            for r, (ks, cs) in enumerate(sparse):
                grp += [r] * len(ks)
                keys += ks
                coefs += cs
            grp = np.array(grp, np.int64)
            idx = np.array([index[k] for k in keys], np.int64)
            coef = np.array(coefs, np.int64) % p
            out = np.zeros((len(sparse), ncol), np.int64)
            at = idx >= npiv
            np.add.at(out.reshape(-1), grp[at] * ncol + idx[at] - npiv, coef[at])
            out %= p
            return out, grp[~at], idx[~at], coef[~at]

        # the normal form of a pivot monomial m is minus that of its
        # reducer's tail, which holds only smaller monomials, so each row
        # reads only rows before it
        table, grp, idx, coef = entries(
            [
                ([m - self.leads[e] + t for t in self.tails[e][0]], [-c for c in self.tails[e][1]])
                for m, e in zip(piv, map(reducer.__getitem__, piv))
            ]
        )
        solve_levels(table, grp, idx, coef, p)

        def forms(sparse):
            mat, grp, idx, coef = entries(sparse)
            _add_rows(mat, grp, idx, coef, table, p)
            return mat

        return cols, len(reached), forms

    def _reduce(self, d: int, rows, nin: int):
        """Reduce degree d's rows, the first nin of them inputs; return the new leads."""
        p = self.p
        cols, nreached, forms = self._table(rows, self.pairs.digits[: len(self.leads)])
        ncol = len(cols)
        # the rows go in slices of at most _BLOCK bytes, inputs first: each is
        # cleared on the pivots found so far, and its own are cleared above.
        # Reduced rows stay in slice order, row k pivoting at pivots[k], in a
        # buffer that doubles when full; they are sorted once at the end.
        step = max(1, _BLOCK // (8 * max(1, ncol)))
        red, pivots = np.zeros((0, ncol), np.int64), []
        kept = 0  # the rank of the inputs alone
        bounds = [*range(0, nin, step), *range(nin, len(rows), step), len(rows)]
        for lo, hi in zip(bounds, bounds[1:]):
            mat = forms(rows[lo:hi])
            nred = len(pivots)
            _clear(mat, pivots, red[:nred], p)
            new, found = rref_mod(mat, p)
            del mat  # so that no slice is held while the next is mapped
            _clear(red[:nred], found, new, p)
            if nred + len(found) > len(red):
                red = np.concatenate([red, np.zeros((max(len(red), len(found)), ncol), np.int64)])
            red[nred : nred + len(found)] = new
            pivots += found
            if hi == nin:
                kept = len(pivots)
        order = np.argsort(pivots)
        red, pivots = red[order], [pivots[k] for k in order.tolist()]
        # an S-pair reduces to zero unless it adds to the rank of the inputs
        npairs = len(rows) - nin
        self.reductions += npairs
        self.zero_reductions += npairs - (len(red) - kept)
        self.degrees[d] = dict(rows=len(rows), zero_rows=len(rows) - len(red),
                               monomials=nreached, nonpivot=ncol, new=len(red))
        for row, c in zip(red, pivots):
            nz = np.flatnonzero(row)[1:]
            self.leads.append(cols[c])
            self.tails.append(([cols[k] for k in nz.tolist()], row[nz].tolist()))
        return [cols[c] for c in pivots]

    def stats(self) -> dict:
        """The counters of the run: per degree, of the S-pairs, and of the pair set."""
        pairs = self.pairs
        return dict(degrees=self.degrees, reductions=self.reductions,
                    zero_reductions=self.zero_reductions, created=pairs.created,
                    pruned_lcm=pairs.pruned_lcm, pruned_coprime=pairs.pruned_coprime,
                    pair_s=self.pair_s)


def normal_form(f: Poly, gens) -> Poly:
    """Remainder of f on division by gens (a GroebnerBasis or iterable of Poly).

    Each monomial is reduced by the first of gens whose lead divides it, so
    every monomial of the result is irreducible; the result is canonical
    when gens is a Groebner basis.  The remainder is read off the reducer
    table of the F4 engine, with the monic gens as its leads and no S-pair
    formed, so moduli above field.MAX_KERNEL_MODULUS raise InputError.
    """
    ring = f.ring
    engine = _F4Engine(ring, ())
    for g in gens:
        if g.terms:
            g = g.monic()
            lead = g.lead_key()
            tail = {k: c for k, c in g.terms.items() if k != lead}
            engine.leads.append(lead)
            engine.tails.append((list(tail), list(tail.values())))
    rows = [(list(f.terms), list(f.terms.values()))]
    cols, _, forms = engine._table(rows, _digits(engine.leads, ring.nvars))
    return Poly(ring, dict(zip(cols, forms(rows)[0].tolist())))


class GroebnerBasis:
    """Reduced Groebner basis: monic generators sorted by ascending lead.

    stats holds the engine's counters from buchberger (_F4Engine.stats), or
    is empty when no engine ran.
    """

    __slots__ = ("ring", "gens", "stats")

    def __init__(self, ring: PolyRing, gens, stats=None):
        self.ring = ring
        self.gens = tuple(gens)
        self.stats = stats or {}

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        return self.gens[i]

    def contains(self, f: Poly) -> bool:
        return normal_form(f, self.gens).is_zero()

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
    engine = _F4Engine(ring, polys)
    return GroebnerBasis(ring, engine.run(), engine.stats())
