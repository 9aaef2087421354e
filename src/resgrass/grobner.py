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
coprime criteria, as integer numpy masks without BLAS.  Inside the engine a
monomial is a uint8 row of the complement digits of its key, and packed ints
appear only in its input and output.  normal_form reads its remainders off
the same reducer table the engine builds per degree.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np

from .field import _BLOCK, DEFAULT_MODULUS, _runs, check_kernel_modulus, is_prime
from .field import inv_mod, leveled, pivot_table, sparse_rref, through_table

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

    def __init__(self, nvars: int, p: int = DEFAULT_MODULUS):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.nvars = nvars
        self.p = p
        self.ord = GrevlexOrder(nvars)
        self.names = tuple(f"x{i}" for i in range(nvars))

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
        super().__init__(len(pairs), p)
        self.names = tuple(f"w_{i}_{j}" for i, j in pairs)
        self.n, self.pairs = n, pairs


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


@lru_cache(maxsize=None)
def _plucker_terms(n: int):
    """Pair indices (ab, cd, ac, bd, ad, bc) of each a < b < c < d of range(n), shape (6, C(n, 4))."""
    pair = {pr: i for i, pr in enumerate(combinations(range(n), 2))}
    quads = list(combinations(range(n), 4))
    return np.array(
        [
            [pair[(t[i], t[j])] for t in quads]
            for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))
        ],
        dtype=np.int64,
    ).reshape(6, len(quads))


def _touched(nonzero, n: int):
    """The indices idx of the lex pairs of range(n) marked by nonzero, and the pairs inside idx."""
    a, b = np.triu_indices(n, 1)
    hit = np.bincount(np.concatenate([a[nonzero], b[nonzero]]), minlength=n) > 0
    return np.flatnonzero(hit), hit[a] & hit[b]


def plucker_ideal(ring: PolyRing, forms=None):
    """The three-term quadrics cutting out G(2, n), one per 4-subset of the indices touched.

    Column ab of forms, an nvars x C(n, 2) matrix with pairs in lex order,
    holds the linear form standing for the Plucker coordinate w_ab; by
    default forms is the identity, the variables of a PluckerRing.  A
    relation with an index outside those of the nonzero columns has a zero
    factor in each product, so only those indices count (_touched), in order.
    The quadric of a < b < c < d is w_ab w_cd - w_ac w_bd + w_ad w_bc, each
    product the outer product of two sparse columns, formed for blocks of
    4-subsets that keep temporaries under _BLOCK.  A quadric that vanishes,
    or that is a nonzero multiple of an earlier one, is left out, so the
    first of each proportional set comes back, in 4-subset order.
    """
    p, nv = ring.p, ring.nvars
    forms = np.eye(nv, dtype=np.int64) if forms is None else np.asarray(forms, np.int64) % p
    npairs = forms.shape[1]
    n = (1 + isqrt(1 + 8 * npairs)) // 2
    if forms.shape != (nv, n * (n - 1) // 2):
        raise ValueError(f"forms must be {nv} x C(n, 2), got {forms.shape[0]} x {npairs}")
    idx, inside = _touched(forms.any(axis=0), n)
    forms, n, npairs = forms[:, inside], len(idx), int(inside.sum())
    # column c is val[c, k] * y_var[c, k] summed over k, padded with zeros
    col, row = np.nonzero(forms.T)
    size = (forms != 0).sum(axis=0)
    var = np.zeros((npairs, max(1, size.max(initial=0))), np.int64)
    val = np.zeros_like(var)
    slot = np.arange(len(col)) - (np.cumsum(size) - size)[col]
    var[col, slot], val[col, slot] = row, forms[row, col]
    terms = _plucker_terms(n)
    step = max(1, _BLOCK // (24 * var.shape[1] ** 2))
    # the terms of each block's quadrics: y_r y_s, r <= s, of quadric t has
    # key t * nv^2 + r * nv + s; keys ascend, coefficients are nonzero
    keys, coefs = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, terms.shape[1], step):
        t = terms[:, lo : lo + step]
        left, right = t[0::2].ravel(), t[1::2].ravel()  # ab, ac, ad and cd, bd, bc
        quad = lo + np.arange(len(left)) % t.shape[1]
        sign = np.repeat([1, p - 1, 1], t.shape[1])[:, None, None]
        r, s = var[left][:, :, None], var[right][:, None, :]
        low = np.minimum(r, s)
        key = ((quad[:, None, None] * nv + low) * nv + r + s - low).ravel()
        coef = (val[left][:, :, None] * val[right][:, None, :] % p * sign % p).ravel()
        order = np.argsort(key)
        key, coef = key[order], coef[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, coef = key[first], np.add.reduceat(coef, first) % p
        keys.append(key[coef != 0])
        coefs.append(coef[coef != 0])
    key, coef = np.concatenate(keys), np.concatenate(coefs)
    quad, mono = np.divmod(key, nv**2)
    new = np.diff(quad, prepend=-1) != 0
    bounds = [*np.flatnonzero(new).tolist(), len(key)]
    # scaled to 1 at its first monomial, a quadric and its multiples agree
    scaled = coef * inv_mod(coef[new], p)[np.cumsum(new) - 1] % p
    sig = np.stack([mono, scaled], axis=1).tobytes()
    seen, keep = set(), []
    for a, b in zip(bounds, bounds[1:]):
        keep.append((h := sig[16 * a : 16 * b]) not in seen)
        seen.add(h)
    # only the terms of the quadrics kept become Python ints
    keep, lengths = np.array(keep, bool), np.diff(bounds)
    at = np.repeat(keep, lengths)
    monos, cs = mono[at].tolist(), coef[at].tolist()
    packed = {m: ring.ord.pack_combo(divmod(m, nv)) for m in set(monos)}
    out, b = [], 0
    for k in lengths[keep].tolist():
        out.append(Poly(ring, dict(zip(map(packed.__getitem__, monos[b : b + k]), cs[b : b + k]))))
        b += k
    return out


def _digits(keys, n: int):
    """The complement digits of packed keys in n variables, one uint8 row each."""
    buf = b"".join(k.to_bytes(n + 1, "little") for k in keys)
    return np.frombuffer(buf, np.uint8).reshape(-1, n + 1)[:, :n]


def _keys(digits):
    """Each digit row's packed key as one void of big-endian bytes, which sort as the keys do."""
    n = digits.shape[1]
    deg = (_CAP * n - digits.sum(axis=1, dtype=np.int64)).astype(np.uint8)
    return np.concatenate([deg[:, None], digits[:, ::-1]], axis=1).view(f"V{n + 1}").ravel()


def _unkeys(keys):
    """The digit rows of contiguous _keys."""
    return keys.view(np.uint8).reshape(-1, keys.itemsize)[:, :0:-1]


def _ints(digits) -> list:
    """The packed keys of digit rows, as Python ints."""
    return [int.from_bytes(k, "big") for k in _keys(digits).tolist()]


def _sparse(terms, n: int):
    """The entries (row, digits, coefficient) of a list of term dicts, row by row."""
    grp = np.repeat(np.arange(len(terms)), [len(t) for t in terms])
    coef = np.array([c for t in terms for c in t.values()], np.int64)
    return grp, _digits([k for t in terms for k in t], n), coef


def _threshold_bits(digits, top):
    """Rows of bits [e_v > k], for k below top_v, the largest exponent of x_v among the leads.

    A lead j divides a monomial m exactly when bits_j & ~bits_m == 0, and
    the bits of an lcm are the or of its factors' bits.  The bits go in as
    many uint64 words per row as they take.
    """
    nrows, n = digits.shape
    var = np.repeat(np.arange(n), top)
    k = np.arange(len(var)) - np.repeat(np.cumsum(top) - top, top)
    out = np.zeros((nrows, 8 * (-(-len(var) // 64) or 1)), np.uint8)
    step = max(1, _BLOCK // max(1, len(var)))
    for s in range(0, nrows, step):
        bits = _CAP - digits[s : s + step, var] > k
        packed = np.packbits(bits, axis=1)
        out[s : s + step, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _first_subset(bits, lacks):
    """Index of the first row of bits sharing no bit with each row of lacks, or -1.

    For threshold bits, that is the first lead dividing each monomial whose
    bits are ~lacks.  Rows of lacks go in blocks under _BLOCK.
    """
    out = np.full(len(lacks), -1)
    step = max(1, _BLOCK // max(1, bits.nbytes))
    for s in range(0, len(lacks) if len(bits) else 0, step):
        hit = ((bits & lacks[s : s + step, None]) == 0).all(axis=2)
        first = hit.argmax(axis=1)
        out[s : s + step] = np.where(hit[np.arange(len(first)), first], first, -1)
    return out


def _strictly_divided(ld, bits, bt):
    """For each lead i of bits, whether the lcm with lead t of another strictly divides lcm(i, t).

    ld holds the lcm degrees with lead t, bits the threshold bits of the
    leads and bt those of t.  Leads below the largest degree are searched
    lowest first, so the first divisor found has the least degree.
    """
    out = np.zeros(len(ld), bool)
    cand = np.flatnonzero(ld > ld.min())
    low = np.flatnonzero(ld < ld.max())
    low = low[np.argsort(ld[low], kind="stable")]
    j = _first_subset(bits[low], ~(bits[cand] | bt))
    out[cand] = (j >= 0) & (ld[low][j] < ld[cand])
    return out


class _PairSet:
    """S-pairs kept by lcm degree, taken a degree at a time and pruned a degree's leads at a time.

    The engine hands over each degree's new leads in one add_elements call.
    Monomials are rows of the complement digits of their grevlex keys, so an
    lcm is an elementwise minimum.  The Gebauer-Moeller criteria on the new
    pairs are array masks, taken in blocks of leads that keep every
    temporary under _BLOCK; the divisor test runs on packed threshold bits
    in integer numpy ops, without BLAS.  One np.unique groups survivors by
    lead and lcm, and a degree's queue is arrays of lcm digits, i and j
    cut from its rows.  The leads' bits serve the engine's reducer search
    too.  A queued pair is never retired: the engine reduces a whole degree
    at once, where a pair that would reduce to zero costs one more zero
    row.  The counters say how many candidate pairs were created and how
    many each criterion pruned.
    """

    def __init__(self, ord_):
        self.ord = ord_
        self.queued: dict = {}  # lcm degree -> [(lcm digits, i, j)], by lead j, then lcm
        self.created = self.pruned_lcm = self.pruned_coprime = 0
        self.digits = np.zeros((0, ord_.nvars), np.uint8)  # one row per lead
        self.hold(self.digits)

    def hold(self, leads):
        """Append leads' digit rows, queueing no pair; top and bits follow them."""
        self.digits = np.concatenate([self.digits, leads])
        self.top = _CAP - self.digits.min(axis=0, initial=_CAP).astype(np.int64)
        self.bits = _threshold_bits(self.digits, self.top)

    def add_elements(self, leads):
        """Hold leads, as digit rows, and queue the pairs of each with every earlier one.

        The earlier leads of the batch count too, so the result is that of
        adding the leads one at a time, in order.
        """
        if not len(leads):
            return
        n = self.ord.nvars
        t0, t1 = len(self.digits), len(self.digits) + len(leads)
        self.hold(leads)
        digits, bits = self.digits, self.bits
        degs = _CAP * n - digits.sum(axis=1, dtype=np.int32)
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
            # one pair per lead and distinct lcm, with the smallest i; none
            # when some pair with that lcm has coprime leads, since its
            # S-poly reduces to zero.  A survivor's bytes are its lead t
            # (big-endian), then its lcm digits, so the groups sort by t, then
            # lcm; survivors come by t, then i, so a group's first index has
            # its smallest i.
            r, i = np.nonzero(~dead)
            t, d = r + a, ldeg[r, i]
            rows = np.concatenate([t.astype(">u4").view(np.uint8).reshape(-1, 4),
                                   np.minimum(digits[t], digits[i])], axis=1)
            uniq, first, group = np.unique(rows.view(f"V{n + 4}").ravel(), return_index=True,
                                           return_inverse=True)
            cop = np.bincount(group[d == degs[i] + degs[t]], minlength=len(uniq)) > 0
            uniq, first = uniq[~cop], first[~cop]
            # every candidate pair is pruned once or queued once
            ncop = int(cop[group].sum())
            self.created += sum(range(a, b))
            self.pruned_coprime += ncop
            self.pruned_lcm += sum(range(a, b)) - ncop - len(first)
            lcms = uniq.view(np.uint8).reshape(-1, n + 4)[:, 4:]
            i, t, d = i[first], t[first], d[first]
            for deg in np.flatnonzero(np.bincount(d)).tolist():
                at = d == deg
                self.queued.setdefault(deg, []).append((lcms[at], i[at], t[at]))

    def take(self, d: int):
        """Remove and return the queued lcm digits, i and j of lcm degree d, by lead j, then lcm."""
        none = (self.digits[:0], np.zeros(0, np.int64), np.zeros(0, np.int64))
        return [np.concatenate(c) for c in zip(*self.queued.pop(d, [none]))]


class _F4Engine:
    """Buchberger for homogeneous input, one Macaulay matrix per degree (F4).

    The rows of degree d, lowest first, are its input generators and every
    S-pair whose lcm has degree d.  Symbolic preprocessing gives each
    monomial they reach that a lead divides one reducer, and the reducers
    make a sparse table of normal forms over the other columns (the pivot
    and non-pivot split of Faugere-Lachartre).  field.sparse_rref puts the
    rows through the table as entries and reduces them in rounds of
    pivots; the nonzero rows are the new elements, and since they are in
    reduced echelon form over non-pivot columns, the basis is reduced as it
    grows.  Monomials are digit rows, as in the pair set, which holds the
    leads; packed ints are left to the input and output.
    """

    def __init__(self, ring, polys):
        check_kernel_modulus(ring.p)
        self.ring = ring
        self.ord, self.p = ring.ord, ring.p
        self.inputs: dict = {}
        for g in polys:
            self.inputs.setdefault(g.degree(), []).append(g.terms)
        self.pairs = _PairSet(self.ord)
        # the tail past the lead of monic element e: entries offsets[e] to offsets[e + 1]
        self.tail_digits = np.zeros((0, self.ord.nvars), np.uint8)
        self.tail_coefs, self.offsets = np.zeros(0, np.int64), np.zeros(1, np.int64)
        # per degree: rows, zero rows, monomials reached, non-pivot columns,
        # new elements, and the seconds of the symbolic, elimination and pair steps
        self.degrees: dict = {}
        self.reductions = self.zero_reductions = 0  # S-pairs

    def run(self):
        # a new lead of degree d is reduced by every older lead, so its pairs
        # have lcm degree above d: no pair joins a degree once it is taken
        n, p = self.ord.nvars, self.p
        while (d := min([*self.inputs, *self.pairs.queued], default=_CAP + 1)) <= _CAP:
            t0 = time.perf_counter()
            inputs = self.inputs.pop(d, [])
            grp, digits, coef = _sparse(inputs, n)
            nin = len(inputs)
            lcm, i, j = self.pairs.take(d)
            # the leads cancel, so the S-polynomial is tail i less tail j,
            # each times lcm over its lead
            ends = np.stack([i, j], axis=1).ravel()
            seg, sdig, scoef = self._shifted(ends, self.pairs.digits[ends] - lcm.repeat(2, axis=0))
            grp = np.concatenate([grp, nin + seg // 2])
            digits = np.concatenate([digits, sdig])
            coef = np.concatenate([coef, np.where(seg % 2, p - scoef, scoef)])
            cols, nreached, rows = self._table(grp, digits, coef)
            t1 = time.perf_counter()
            leads = self._reduce(d, nin + len(i), nin, cols, nreached, rows)
            t2 = time.perf_counter()
            self.pairs.add_elements(leads)
            t3 = time.perf_counter()
            self.degrees[d].update(symbolic_s=t1 - t0, elim_s=t2 - t1, pairs_s=t3 - t2)
        if self.pairs.queued:
            # its S-polynomial has monomials the packing cannot hold
            raise OverflowError(f"S-pair degree over the cap {_CAP}")
        tails, coefs, at = _ints(self.tail_digits), self.tail_coefs.tolist(), self.offsets.tolist()
        basis = [Poly(self.ring, {m: 1, **dict(zip(tails[a:b], coefs[a:b]))})
                 for m, a, b in zip(_ints(self.pairs.digits), at, at[1:])]
        return sorted(basis, key=Poly.lead_key)

    def _add_tails(self, digits, coef, lens):
        """Append the tails of new elements: their entries, in order, and each one's count."""
        self.tail_digits = np.concatenate([self.tail_digits, digits])
        self.tail_coefs = np.concatenate([self.tail_coefs, coef])
        self.offsets = np.concatenate([self.offsets, self.offsets[-1] + np.cumsum(lens)])

    def _shifted(self, elems, shift):
        """The tails of elems times m_k / lead, for shift[k] the lead's digits less m_k's.

        Returns each term's index k, its digits and its coefficient.
        """
        start = self.offsets[elems]
        lens = self.offsets[elems + 1] - start
        seg = np.repeat(np.arange(len(elems)), lens)
        at = np.arange(len(seg)) + np.repeat(start - np.cumsum(lens) + lens, lens)
        return seg, self.tail_digits[at] - shift[seg], self.tail_coefs[at]

    def _table(self, grp, digits, coef):
        """Symbolic preprocessing of sparse rows and the reducer table of F4.

        The rows are entries (row, digits, coefficient), rows ascending.
        Each monomial reached is tested against the held leads, and the
        first that divides it gives its reducer.  Returns the non-pivot
        columns, descending, as digit rows; the count of monomials reached;
        and the rows as entries with their table, through_table's arguments,
        whose output is the rows' normal forms over those columns.
        """
        p, leads = self.p, self.pairs
        first, inverse = np.unique(_keys(digits), return_inverse=True)
        reached = todo = first
        # per pass: the monomials with a reducer, and the entries of the
        # reducers' rows with the monomial each belongs to
        found = [(first[:0],) * 3 + (coef[:0],)]
        while len(todo):
            rows = _unkeys(todo)
            e = _first_subset(leads.bits, ~_threshold_bits(rows, leads.top))
            hit = e >= 0
            seg, tdig, tcoef = self._shifted(e[hit], leads.digits[e[hit]] - rows[hit])
            tkeys = _keys(tdig)
            found.append((todo[hit], todo[hit][seg], tkeys, tcoef))
            # the tails' monomials not reached yet, merged into reached, which
            # stays sorted; a plain np.unique would import numpy.ma
            todo = np.sort(tkeys)
            todo = todo[_runs(todo)[0]]
            at = np.searchsorted(reached, todo)
            fresh = reached[np.minimum(at, len(reached) - 1)] != todo
            todo = todo[fresh]
            reached = np.insert(reached, at[fresh], todo)
        piv, owner, tkeys, tcoef = (np.concatenate(a) for a in zip(*found))
        # column k is the k-th largest monomial reached.  The row of a pivot
        # monomial is its reducer shifted there, which leads with a 1 at it.
        n = len(reached)
        col = lambda keys: n - 1 - np.searchsorted(reached, keys)
        lead, keep = col(piv), np.ones(n, bool)
        keep[lead] = False
        g, c = np.concatenate([lead, col(owner)]), np.concatenate([lead, col(tkeys)])
        order = np.argsort(g * n + c)
        v = np.concatenate([np.ones(len(lead), np.int64), tcoef])[order]
        start, size, tcol, tcoef = pivot_table(*leveled(g[order], c[order], v, n, p), n, p)
        at = np.cumsum(keep) - 1  # each column's index among the non-pivot ones
        rows = grp, col(first)[inverse], coef, (start, size, at[tcol], tcoef)
        return _unkeys(np.ascontiguousarray(reached[::-1][keep])), n, rows

    def _reduce(self, d: int, nrows: int, nin: int, cols, nreached: int, rows):
        """Reduce degree d's rows, the first nin inputs; add the new elements and return leads.

        rows is _table's, and sparse_rref reduces their normal forms over
        cols, with the rank of the inputs alone.
        """
        g, c, v, pivots, kept = sparse_rref(*rows, nrows, len(cols), self.p, nin)
        # an S-pair reduces to zero unless it adds to the rank of the inputs
        npairs, new = nrows - nin, len(pivots)
        self.reductions += npairs
        self.zero_reductions += npairs - (new - kept)
        self.degrees[d] = dict(rows=nrows, zero_rows=nrows - new,
                               monomials=nreached, nonpivot=len(cols), new=new)
        tail = c != pivots[g]
        self._add_tails(cols[c[tail]], v[tail], np.bincount(g[tail], minlength=new))
        return cols[pivots]

    def stats(self) -> dict:
        """The counters of the run: per degree, of the S-pairs, and of the pair set."""
        pairs = self.pairs
        return dict(degrees=self.degrees, reductions=self.reductions,
                    zero_reductions=self.zero_reductions, created=pairs.created,
                    pruned_lcm=pairs.pruned_lcm, pruned_coprime=pairs.pruned_coprime,
                    pair_s=sum(c["pairs_s"] for c in self.degrees.values()))


def normal_form(f: Poly, gens) -> Poly:
    """Remainder of f on division by gens (a GroebnerBasis or iterable of Poly).

    Each monomial is reduced by the first of gens whose lead divides it, so
    every monomial of the result is irreducible; the result is canonical
    when gens is a Groebner basis.  The remainder is read off the reducer
    table of the F4 engine, with the monic gens as its leads and no S-pair
    formed, so moduli above field.MAX_KERNEL_MODULUS raise InputError.
    Generators from another ring than f's raise ValueError.
    """
    ring = f.ring
    gens = [g.monic() for g in gens if g.terms]
    if any(g.ring is not ring for g in gens):
        raise ValueError("generators live in different rings")
    engine = _F4Engine(ring, ())
    leads = [g.lead_key() for g in gens]
    grp, digits, coef = _sparse([{k: c for k, c in g.terms.items() if k != m}
                                 for g, m in zip(gens, leads)], ring.nvars)
    engine._add_tails(digits, coef, np.bincount(grp, minlength=len(gens)))
    engine.pairs.hold(_digits(leads, ring.nvars))
    cols, _, rows = engine._table(*_sparse([f.terms], ring.nvars))
    _, c, v = through_table(*rows, len(cols), ring.p)
    return Poly(ring, dict(zip(_ints(cols[c]), v.tolist())))


class GroebnerBasis:
    """Reduced Groebner basis: monic generators sorted by ascending lead.

    stats holds the engine's counters from buchberger (_F4Engine.stats); it
    is empty only for a basis built by hand, which leading_ideal refuses.
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
    if not all(g.is_homogeneous() for g in polys):
        raise ValueError("buchberger takes homogeneous generators only")
    engine = _F4Engine(ring, polys)
    return GroebnerBasis(ring, engine.run(), engine.stats())
