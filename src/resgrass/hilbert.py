"""Hilbert series numerators of monomial ideals, and Hilbert polynomials.

Writing the Hilbert series of S/I as h(t) / (1-t)^nvars, the numerator h is
computed by pivoting on a frequent variable x: h(I) = h(I + (x)) + t*h(I : x).
The one base case is a pure-power complete intersection, whose numerator is
the product of the (1 - t^a).  Monomials are the engine's grevlex keys
(grobner.GrevlexOrder), each generator carried with its support mask, so a
leading ideal is read off a basis as it stands and shares the engine's cap
of 127 on exponents and total degree.  The Hilbert polynomial is read off h
in powers of (1 - t), exactly, in the binomial basis P_i(d) = C(d+i, i),
the form quotient-of-projective-scheme output is usually read in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .grobner import GrevlexOrder


def _minimalize(ord_, gens):
    """The (key, support mask) pairs of gens that no other one divides, ascending."""
    degree, divides = ord_.degree, ord_.divides
    kept = []
    d = lower = 0  # keys ascend by degree, and equal degrees never divide
    for g in sorted(set(gens)):
        if degree(g[0]) > d:
            d, lower = degree(g[0]), len(kept)
        for h in kept[:lower]:
            if not h[1] & ~g[1] and divides(h[0], g[0]):
                break
        else:
            kept.append(g)
    return kept


class MonomialIdeal:
    """A monomial ideal, held as the grevlex keys of its minimal generators."""

    def __init__(self, nvars: int, gens):
        ord_ = GrevlexOrder(nvars)
        self._hold(ord_, [ord_.pack(e) for e in gens])

    def _hold(self, ord_, keys):
        self.nvars = ord_.nvars
        self._ord = ord_
        unpack = ord_.unpack
        self._gens = _minimalize(
            ord_, [(k, sum(1 << v for v, e in enumerate(unpack(k)) if e)) for k in keys]
        )

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
    """Monomial ideal of lead terms; minimal already when gb is reduced."""
    mi = MonomialIdeal.__new__(MonomialIdeal)
    mi._hold(gb.ring.ord, [g.lead_key() for g in gb])
    return mi


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _one_minus_t_pow(d: int):
    """Coefficients of 1 - t^d; d = 0 gives 0, the numerator of the unit ideal."""
    out = [0] * (d + 1)
    out[0] += 1
    out[d] -= 1
    return out


def _numer(gens, ord_, memo: dict):
    key = frozenset(g[0] for g in gens)
    hit = memo.get(key)
    if hit is not None:
        return hit

    mixed = [g for g in gens if g[1].bit_count() > 1]
    if not mixed:
        h = [1]
        for g, _ in gens:
            h = _poly_mul(h, _one_minus_t_pow(ord_.degree(g)))
    else:
        counts: dict = {}
        for _, mask in mixed:
            v = 0
            while mask:
                if mask & 1:
                    counts[v] = counts.get(v, 0) + 1
                mask >>= 1
                v += 1
        pivot = max(sorted(counts), key=lambda v: counts[v])
        bit = 1 << pivot
        x = ord_.pack_combo((pivot,))
        plus = [g for g in gens if not g[1] & bit] + [(x, bit)]
        colon = []
        for g in gens:
            if not g[1] & bit:
                colon.append(g)
            elif ord_.exponent(g[0], pivot) == 1:
                colon.append((ord_.quo(g[0], x), g[1] & ~bit))
            else:
                colon.append((ord_.quo(g[0], x), g[1]))
        h = _poly_add(
            _numer(plus, ord_, memo),
            [0] + _numer(_minimalize(ord_, colon), ord_, memo),
        )

    while h and h[-1] == 0:
        h.pop()
    memo[key] = h
    return h


def hilbert_numerator(mi: MonomialIdeal):
    """Coefficients of h(t) with HS(S/I) = h(t) / (1-t)^nvars."""
    return _numer(list(mi._gens), mi._ord, {})


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
