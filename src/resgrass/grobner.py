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
degree's new leads go to the pair set (pairs._PairSet) in one batch.
Inside the engine a monomial is a uint8 row of the complement digits of its
key, and its inputs are entries by degree, as plucker_entries makes them.
Packed ints appear only in the Poly adapters plucker_ideal, buchberger and
normal_form, which reads its remainders off the same reducer table the
engine builds per degree.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from math import isqrt

import numpy as np

from .field import _BLOCK, DEFAULT_MODULUS, _runs, _spans, check_kernel_modulus, is_prime
from .field import inv_mod, leveled, pivot_table, sparse_rref, through_table
from .pairs import _CAP, _PairSet, _first_subset, _threshold_bits

_W = 8


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
    """The three-term quadrics cutting out G(2, n), as Polys of ring: plucker_entries' rows."""
    return _polys(ring, *plucker_entries(ring.nvars, ring.p, forms))


def plucker_entries(nv: int, p: int, forms=None):
    """The three-term quadrics cutting out G(2, n), one per 4-subset of the indices touched.

    Column ab of forms, an nv x C(n, 2) matrix with pairs in lex order,
    holds the linear form standing for the Plucker coordinate w_ab; by
    default forms is the identity, the variables of a PluckerRing.  A
    relation with an index outside those of the nonzero columns has a zero
    factor in each product, so only those indices count (_touched), in order.
    The quadric of a < b < c < d is w_ab w_cd - w_ac w_bd + w_ad w_bc, each
    product the outer product of two sparse columns, formed for blocks of
    4-subsets that keep temporaries under _BLOCK.  A quadric that vanishes,
    or that is a nonzero multiple of an earlier one, is left out, so the
    first of each proportional set comes back, in 4-subset order, as the
    engine's entries (row, digit row, coefficient), monomials ascending.
    """
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
    row, start = np.cumsum(new) - 1, np.flatnonzero(new)
    # scaled to 1 at its first monomial, a quadric and its multiples agree:
    # as rows of (monomial, scaled coefficient) padded with -1, they are
    # equal, and np.unique gives the first of each
    slot = np.arange(len(key)) - start[row]
    sig = np.full((len(start), 2 * (slot.max(initial=0) + 1)), -1, np.int64)
    sig[row, 2 * slot], sig[row, 2 * slot + 1] = mono, coef * inv_mod(coef[new], p)[row] % p
    keep = np.zeros(len(start), bool)
    keep[np.unique(sig.view(f"V{8 * sig.shape[1]}").ravel(), return_index=True)[1]] = True
    at = keep[row]
    low, high = np.divmod(mono[at], nv)
    eye = np.eye(nv, dtype=np.uint8)
    return (np.cumsum(keep) - 1)[row[at]], _CAP - eye[low] - eye[high], coef[at]


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


def _polys(ring, grp, digits, coef):
    """The Polys of ring of entries (row, digits, coefficient), one per row, rows ascending."""
    at = np.searchsorted(grp, np.arange(grp.max(initial=-1) + 2)).tolist()
    keys, cs = _ints(digits), coef.tolist()
    return [Poly(ring, dict(zip(keys[a:b], cs[a:b]))) for a, b in zip(at, at[1:])]


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
    leads.  The inputs are entries (row, digits, coefficient) by degree,
    rows ascending from 0, and the basis stays as the leads and the tails.
    """

    def __init__(self, ring, inputs: dict):
        check_kernel_modulus(ring.p)
        self.ord, self.p = ring.ord, ring.p
        self.inputs = inputs  # taken a degree at a time
        self.pairs = _PairSet(self.ord)
        # the tail past the lead of monic element e: entries offsets[e] to offsets[e + 1]
        self.tail_digits = np.zeros((0, self.ord.nvars), np.uint8)
        self.tail_coefs, self.offsets = np.zeros(0, np.int64), np.zeros(1, np.int64)
        # per degree: rows, zero rows, monomials reached, non-pivot columns,
        # new elements, and the seconds of the symbolic, elimination, stop and pair steps
        self.degrees: dict = {}
        self.reductions = self.zero_reductions = 0  # S-pairs
        self.stopped_at = None  # the degree after which a stop hook ended the run

    def run(self, stop=None):
        # a new lead of degree d is reduced by every older lead, so its pairs
        # have lcm degree above d: no pair joins a degree once it is taken.
        # stop, given the digit rows of every lead after a degree, ends the
        # run there when it returns True, before that degree's pairs are formed
        n, p = self.ord.nvars, self.p
        none = (np.zeros(0, np.int64), np.zeros((0, n), np.uint8), np.zeros(0, np.int64))
        while (d := min([*self.inputs, *self.pairs.queued], default=_CAP + 1)) <= _CAP:
            t0 = time.perf_counter()
            grp, digits, coef = self.inputs.pop(d, none)
            nin = int(grp.max(initial=-1)) + 1
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
            done = stop is not None and stop(np.concatenate([self.pairs.digits, leads]))
            t3 = time.perf_counter()
            (self.pairs.hold if done else self.pairs.add_elements)(leads)
            t4 = time.perf_counter()
            self.degrees[d].update(symbolic_s=t1 - t0, elim_s=t2 - t1, stop_s=t3 - t2,
                                   pairs_s=t4 - t3)
            if done:
                self.stopped_at = d
                break
        if self.pairs.queued and self.stopped_at is None:
            # its S-polynomial has monomials the packing cannot hold
            raise OverflowError(f"S-pair degree over the cap {_CAP}")

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
        at = _spans(start, lens)
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
        out = dict(degrees=self.degrees, reductions=self.reductions,
                   zero_reductions=self.zero_reductions, created=pairs.created,
                   pruned_lcm=pairs.pruned_lcm, pruned_coprime=pairs.pruned_coprime,
                   pair_s=sum(c["pairs_s"] for c in self.degrees.values()))
        return out if self.stopped_at is None else dict(out, stopped_at=self.stopped_at)


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
    engine = _F4Engine(ring, {})
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


def buchberger(gens, ring: PolyRing | None = None, stop=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic: equal input ideals over the same ring produce identical
    output, and reduced bases are unique, so any correct engine must agree.
    Inhomogeneous generators raise ValueError.  A stop hook (_F4Engine.run)
    may end the run after a degree D: the basis is then only the part up to
    D, reduced, and its stats carry stopped_at = D.
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
    inputs: dict = {}
    for g in polys:
        inputs.setdefault(g.degree(), []).append(g.terms)
    engine = _F4Engine(ring, {d: _sparse(t, ring.nvars) for d, t in inputs.items()})
    engine.run(stop)
    # element e is its lead, with coefficient 1, then its tail
    start, lens = engine.offsets[:-1], np.diff(engine.offsets)
    basis = _polys(ring, np.repeat(np.arange(len(lens)), lens + 1),
                   np.insert(engine.tail_digits, start, engine.pairs.digits, axis=0),
                   np.insert(engine.tail_coefs, start, 1))
    return GroebnerBasis(ring, sorted(basis, key=Poly.lead_key), engine.stats())
