"""Hilbert series numerators of monomial ideals, and Hilbert polynomials.

Writing the Hilbert series of S/I as h(t) / (1-t)^nvars, the numerator h is
computed by pivoting on x, the variable in the most mixed generators (the
first of a tie): h(I) = h(I + (x)) + t*h(I : x), memoized on the minimal
generators, down to pure powers g, whose numerator is prod (1 - t^deg g).
No step tests generators in pairs: in I : x a quotient g/x divides no other
generator, or g would divide one, so only a generator without x can fall,
to a quotient g/x with x^1 in g; a quotient that is one variable y drops the
generators with y by a mask test.  The generators are the leads of a basis
the engine made, minimal since the basis is reduced; leading_ideal refuses a
basis built by hand.  Monomials are the engine's grevlex keys with their
support masks, under its cap of 127 on exponents and total degree.  The
Hilbert polynomial is read off h in powers of (1 - t), exactly, in the basis
P_i(d) = C(d+i, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

import numpy as np

from .grobner import _CAP, _digits


class MonomialIdeal:
    """A monomial ideal, held as the grevlex keys of its minimal generators, taken as given.

    digits, the keys' digit rows, may come along when the caller has them.
    """

    def __init__(self, ord_, keys, digits=None):
        self.nvars, self._ord = ord_.nvars, ord_
        digits = _digits(keys, ord_.nvars) if digits is None else digits
        masks = np.packbits(digits != _CAP, axis=1, bitorder="little")
        masks = masks.view(f"V{masks.shape[1]}").ravel().tolist()
        self._gens = [(k, int.from_bytes(m, "little")) for k, m in zip(keys, masks)]

    @property
    def gens(self):
        """The minimal generators as exponent tuples, sorted."""
        return tuple(sorted(self._ord.unpack(k) for k, _ in self._gens))

    def __len__(self):
        return len(self._gens)

    def contains(self, exps) -> bool:
        k = self._ord.pack(exps)
        return any(self._ord.divides(h, k) for h, _ in self._gens)

    def __repr__(self):
        return f"MonomialIdeal({len(self)} gens in {self.nvars} vars)"


def leading_ideal(gb) -> MonomialIdeal:
    """Monomial ideal of the leads of a basis buchberger made; one built by hand raises ValueError."""
    if not gb.stats:  # its leads need not be minimal, and the pure-power base case needs them so
        raise ValueError("leading_ideal takes a basis that buchberger made")
    return MonomialIdeal(gb.ring.ord, [g.lead_key() for g in gb])


def _numer(gens, ord_, memo: dict, count: dict):
    count["calls"] += 1
    key = frozenset(g[0] for g in gens)
    hit = memo.get(key)
    if hit is not None:
        count["hits"] += 1
        return hit

    tally: dict = {}  # bit of x_v -> mixed generators with x_v
    for _, m in gens:
        if m & (m - 1):
            while m:
                tally[m & -m] = tally.get(m & -m, 0) + 1
                m &= m - 1
    if not tally:
        degs = [ord_.degree(k) for k, _ in gens]
        h = [1]
        for d in set(degs):  # (1 - t^d)^m; d = 0, the unit ideal's, gives 0
            m = degs.count(d)
            out = [0] * (len(h) + d * m)
            for j in range(m + 1):
                c = (-1) ** j * comb(m, j)
                for i, a in enumerate(h, d * j):
                    out[i] += c * a
            h = out
    else:
        bit = min(tally, key=lambda b: (-tally[b], b))  # most mixed generators, then lowest index
        pivot = bit.bit_length() - 1
        x = ord_.pack_combo((pivot,))
        plus = [g for g in gens if not g[1] & bit]
        colon, ys, lowered = [], 0, []  # ys: the variables y with x*y in gens
        for k, m in gens:
            if m & bit:
                q = ord_.quo(k, x)
                if ord_.exponent(k, pivot) == 1:
                    m ^= bit
                    if ord_.degree(q) == 1:
                        ys |= m
                    else:
                        lowered.append((q, m))
                colon.append((q, m))
        colon += [g for g in plus if not g[1] & ys
                  and all(m & ~g[1] or not ord_.divides(q, g[0]) for q, m in lowered)]
        a = _numer(plus + [(x, bit)], ord_, memo, count)
        b = _numer(colon, ord_, memo, count)
        h = [c + e for c, e in zip_longest(a, [0] + b, fillvalue=0)]

    while h and h[-1] == 0:
        h.pop()
    memo[key] = h
    return h


def hilbert_numerator(mi: MonomialIdeal, stats: dict | None = None):
    """Coefficients of h(t) with HS(S/I) = h(t) / (1-t)^nvars.

    stats, if given, gets the recursion's calls and the memo hits among them.
    """
    count = {} if stats is None else stats
    count.update(calls=0, hits=0)
    return _numer(mi._gens, mi._ord, {}, count)


@dataclass(frozen=True)
class HilbertPoly:
    """Hilbert polynomial in the basis P_i(d) = C(d+i, i)."""

    coeffs: tuple[int, ...]

    def evaluate(self, d: int) -> int:
        return sum(c * comb(d + i, i) for i, c in enumerate(self.coeffs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self):
        return format_hp(self)


def hilbert_polynomial(numer, nvars: int) -> HilbertPoly:
    """Exact Hilbert polynomial of a quotient with numerator numer over nvars vars.

    In powers of s = 1 - t the numerator is sum_j b_j s^j, with
    b_j = (-1)^j sum_k h_k C(k, j).  As 1/(1-t)^(i+1) generates P_i, the
    polynomial is sum_{j < nvars} b_j P_{nvars-1-j}; the terms j >= nvars
    are polynomials in t, which change finitely many values only.
    """
    coeffs = [
        (-1) ** j * sum(c * comb(k, j) for k, c in enumerate(numer)) for j in reversed(range(nvars))
    ]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return HilbertPoly(tuple(coeffs))


def format_hp(hp: HilbertPoly) -> str:
    """Render as 'c*P_i' terms joined by ' + ', ascending i; zero shows as '0'."""
    terms = [f"{c}*P_{i}" for i, c in enumerate(hp.coeffs) if c]
    return " + ".join(terms) if terms else "0"
