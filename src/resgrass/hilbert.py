"""Hilbert series numerators of monomial ideals, and Hilbert polynomials.

Writing the Hilbert series of S/I as h(t) / (1-t)^nvars, the numerator h is
computed by pivoting on a frequent variable x: h(I) = h(I + (x)) + t*h(I : x).
Base cases are pure-power complete intersections and the one-mixed-generator
colon formula.  The Hilbert polynomial is then extracted exactly and expressed
in the binomial basis P_i(d) = C(d+i, i), the form quotient-of-projective-
scheme output is usually read in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

_W = 8


def _guards(nvars: int) -> int:
    return sum(0x80 << (_W * i) for i in range(nvars))


def _pack(exps):
    key = 0
    mask = 0
    deg = 0
    for i, e in enumerate(exps):
        if not 0 <= e <= 127:
            raise OverflowError(f"exponent {e} outside 0..127")
        if e:
            key |= e << (_W * i)
            mask |= 1 << i
            deg += e
    return key, mask, deg


def _divides(a, b, guards: int) -> bool:
    """Packed monomial a divides b (digit-wise a <= b)."""
    if a[1] & ~b[1]:
        return False
    return (b[0] + guards - a[0]) & guards == guards


def _minimalize(gens, guards: int):
    """Drop generators divisible by another; equal degrees never divide."""
    gens = sorted(set(gens), key=lambda g: g[2])
    kept = []
    for g in gens:
        ok = True
        for h in kept:
            if h[2] >= g[2]:
                break
            if _divides(h, g, guards):
                ok = False
                break
        if ok:
            kept.append(g)
    return kept


class MonomialIdeal:
    """A monomial ideal, held as its minimal generating exponent tuples."""

    def __init__(self, nvars: int, gens):
        self.nvars = nvars
        self._packed = _minimalize([_pack(e) for e in gens], _guards(nvars))
        self.gens = tuple(sorted(self._unpack(g[0]) for g in self._packed))

    def _unpack(self, key: int):
        return tuple((key >> (_W * i)) & 0xFF for i in range(self.nvars))

    def __len__(self):
        return len(self.gens)

    def contains(self, exps) -> bool:
        g = _pack(exps)
        guards = _guards(self.nvars)
        return any(_divides(h, g, guards) for h in self._packed)

    def __repr__(self):
        return f"MonomialIdeal({len(self.gens)} gens in {self.nvars} vars)"


def leading_ideal(gb) -> MonomialIdeal:
    """Monomial ideal of lead terms; minimal already when gb is reduced."""
    return MonomialIdeal(gb.ring.nvars, gb.lead_exponents())


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
    out = [0] * (d + 1)
    out[0] = 1
    out[d] = -1
    return out


def _numer(gens, guards: int, memo: dict):
    if not gens:
        return [1]
    if any(g[2] == 0 for g in gens):
        return [0]
    key = frozenset(g[0] for g in gens)
    hit = memo.get(key)
    if hit is not None:
        return hit

    pures = [g for g in gens if g[1].bit_count() == 1]
    mixed = [g for g in gens if g[1].bit_count() > 1]
    if not mixed:
        h = [1]
        for g in pures:
            h = _poly_mul(h, _one_minus_t_pow(g[2]))
    elif len(mixed) == 1:
        # I = P + (m): h = h(P) - t^|m| h(P : m), and P : m is pure again
        m = mixed[0]
        first = [1]
        second = [1]
        for g in pures:
            first = _poly_mul(first, _one_minus_t_pow(g[2]))
            v = g[1].bit_length() - 1
            res = g[2] - ((m[0] >> (_W * v)) & 0xFF)
            if res <= 0:
                second = [0]
                break
            second = _poly_mul(second, _one_minus_t_pow(res))
        h = _poly_add(first, [-c for c in _poly_mul([0] * m[2] + [1], second)])
    else:
        counts: dict = {}
        for g in mixed:
            mask = g[1]
            v = 0
            while mask:
                if mask & 1:
                    counts[v] = counts.get(v, 0) + 1
                mask >>= 1
                v += 1
        pivot = max(sorted(counts), key=lambda v: counts[v])
        bit = 1 << pivot
        shift = _W * pivot
        without = [g for g in gens if not g[1] & bit]
        plus = without + [(1 << shift, bit, 1)]
        colon = []
        for g in gens:
            e = (g[0] >> shift) & 0xFF
            if e == 0:
                colon.append(g)
            elif e == 1:
                colon.append((g[0] - (1 << shift), g[1] & ~bit, g[2] - 1))
            else:
                colon.append((g[0] - (1 << shift), g[1], g[2] - 1))
        h = _poly_add(
            _numer(plus, guards, memo),
            [0] + _numer(_minimalize(colon, guards), guards, memo),
        )

    while h and h[-1] == 0:
        h.pop()
    memo[key] = h
    return h


def hilbert_numerator(mi: MonomialIdeal):
    """Coefficients of h(t) with HS(S/I) = h(t) / (1-t)^nvars."""
    h = _numer(list(mi._packed), _guards(mi.nvars), {})
    while h and h[-1] == 0:
        h.pop()
    return h


def hilbert_function_values(numer, nvars: int, upto: int):
    """Hilbert function values dim (S/I)_d for d = 0..upto, by series expansion."""
    vals = list(numer[: upto + 1]) + [0] * max(0, upto + 1 - len(numer))
    for _ in range(nvars):
        for i in range(1, upto + 1):
            vals[i] += vals[i - 1]
    return vals


def _binom(x: int, r: int) -> int:
    """C(x, r) for any integer x, polynomial extension (exact)."""
    if r < 0:
        return 0
    num = 1
    for i in range(r):
        num *= x - i
    return num // factorial(r)


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
    """Exact Hilbert polynomial of a quotient with numerator numer over nvars vars."""
    h = list(numer)
    while h and h[-1] == 0:
        h.pop()
    d = nvars
    while h and sum(h) == 0 and d > 0:
        # divide by (1 - t): quotient coefficients are prefix sums
        acc = 0
        q = []
        for c in h[:-1]:
            acc += c
            q.append(acc)
        h = q
        while h and h[-1] == 0:
            h.pop()
        d -= 1
    if not h or d <= 0:
        return HilbertPoly(())
    r = d - 1

    def f(x: int) -> int:
        return sum(c * _binom(x - k + r, r) for k, c in enumerate(h))

    # f(-j) = sum_i coeffs[i] * (-1)^i * C(j-1, i): triangular system
    coeffs = []
    for i in range(r + 1):
        j = i + 1
        rhs = f(-j) - sum(
            coeffs[k] * (-1) ** k * comb(j - 1, k) for k in range(i)
        )
        coeffs.append((-1) ** i * rhs)
    return HilbertPoly(tuple(coeffs))


def format_hp(hp: HilbertPoly) -> str:
    """Render as 'c*P_i' terms joined by ' + ', ascending i; zero shows as '0'."""
    terms = [f"{c}*P_{i}" for i, c in enumerate(hp.coeffs) if c]
    return " + ".join(terms) if terms else "0"
