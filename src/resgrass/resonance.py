"""First resonance varieties via the Grassmannian of 2-planes.

Each dependent triple of hyperplanes contributes a distinguished point of
P(Lambda^2), the boundary of the triple, and these points span I_2, the
degree-2 part of the Orlik-Solomon ideal.  The first resonance variety is
G(2, n) intersected with P(I_2): in coordinates on I_2 its ideal is the
Plucker quadrics pulled back to I_2.  Its Hilbert polynomial is the headline
output; a brute-force decomposable search over a small field gives the same
locus point by point for cross-checking.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .arrangement import Arrangement, dependent_sets
from .errors import DEFAULT_BUDGET, BudgetError, InputError
from .exterior import ExtElement, Subspace, os_ideal_part, wedge
from .field import (
    DEFAULT_MODULUS,
    check_enumeration_field,
    kernel_basis,
    kernel_dtype,
    matmul_mod,
    mod,
    projective_points,
    rref,
)
from .grobner import PluckerRing, PolyRing, buchberger, plucker_ideal
from .hilbert import format_hp, hilbert_numerator, hilbert_polynomial, leading_ideal


@dataclass(frozen=True)
class PluckerPoint:
    """A point of P(Lambda^2 F_p^n) in pair coordinates, pairs in lex order."""

    n: int
    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        want = self.n * (self.n - 1) // 2
        if len(self.coords) != want:
            raise ValueError(f"expected {want} coordinates, got {len(self.coords)}")


def os_points(arr: Arrangement, p: int = DEFAULT_MODULUS) -> list[PluckerPoint]:
    """One point per dependent triple: the (+1, -1, +1) boundary pattern."""
    index = {pr: k for k, pr in enumerate(combinations(range(arr.n), 2))}
    pts = []
    for a, b, c in dependent_sets(arr, 3, p):
        coords = [0] * len(index)
        coords[index[(b, c)]] = 1
        coords[index[(a, c)]] = p - 1
        coords[index[(a, b)]] = 1
        pts.append(PluckerPoint(arr.n, p, tuple(coords)))
    return pts


def span_forms(points, ring: PluckerRing):
    """Linear forms cutting out the projective span of the given points.

    With no points the span is empty and every coordinate must vanish, so all
    ring variables come back.
    """
    for pt in points:
        if pt.n != ring.n or pt.p != ring.p:
            raise ValueError("point does not match the ring")
    rows = [list(pt.coords) for pt in points]
    ker = kernel_basis(rows, ring.nvars, ring.p)
    return [ring.linear_form(v) for v in ker]


@dataclass(frozen=True)
class ResonanceReport:
    arrangement: str
    n: int
    p: int
    hilbert: str
    n_os_points: int
    n_span_forms: int
    timings_ms: dict
    # the Groebner engine's counters (GroebnerBasis.stats); not in to_json
    engine: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "arrangement": self.arrangement,
                "n": self.n,
                "p": self.p,
                "hilbert": self.hilbert,
                "n_os_points": self.n_os_points,
                "n_span_forms": self.n_span_forms,
                "timings_ms": self.timings_ms,
            }
        )


def r1_hilbert(arr: Arrangement, p: int = DEFAULT_MODULUS) -> ResonanceReport:
    """Hilbert polynomial of G(2, n) intersected with P(I_2), in coordinates on I_2.

    Row r of the reduced basis of I_2 gives the variable y_r, named after the
    pair coordinate of its pivot, which it equals on I_2.  Every pair
    coordinate w_ab is the linear form sum_r y_r * rows[r][ab], and the
    Plucker quadrics pulled back along those forms generate the ideal in
    dim I_2 variables.  The OS points are counted off the circuits I_2 was
    built from, its dependent triples.
    """
    t0 = time.perf_counter()
    i2 = os_ideal_part(arr, 2, p)
    t1 = time.perf_counter()
    if i2.dim():
        pivot_pairs = (i2.subsets[c] for c in i2.pivots)
        ring = PolyRing(i2.dim(), p, names=[f"w_{a}_{b}" for a, b in pivot_pairs])
        coords = {
            pr: ring.linear_form([row[c] for row in i2.rows])
            for c, pr in enumerate(i2.subsets)
        }
        gb = buchberger(plucker_ideal(ring, coords), ring=ring)
        t2 = time.perf_counter()
        hp = hilbert_polynomial(hilbert_numerator(leading_ideal(gb)), ring.nvars)
        t3 = time.perf_counter()
        hilbert = format_hp(hp)
        engine = gb.stats
    else:
        # no dependent triple: no resonance, and no reason to run Buchberger
        t2 = t3 = t1
        hilbert = "0"
        engine = {}
    ms = lambda a, b: round((b - a) * 1000.0, 3)
    return ResonanceReport(
        arrangement=arr.name,
        n=arr.n,
        p=p,
        hilbert=hilbert,
        n_os_points=len(i2.circuits),
        n_span_forms=i2.ambient_dim() - i2.dim(),
        timings_ms={
            "span": ms(t0, t1),
            "groebner": ms(t1, t2),
            "hilbert": ms(t2, t3),
            "total": ms(t0, t3),
        },
        engine=engine,
    )


def is_decomposable(u: ExtElement) -> bool:
    """Whether a grade-2 element is a wedge of two vectors.

    Tested by the three-term Plucker relations on the support, which is the
    u ^ u = 0 criterion in a form that also survives characteristic 2.
    """
    if u.grade != 2:
        raise ValueError("decomposability test expects grade 2")
    idx = sorted({i for key in u.terms for i in key})
    p = u.p
    get = u.terms.get
    for a, b, c, d in combinations(idx, 4):
        val = (
            get((a, b), 0) * get((c, d), 0)
            - get((a, c), 0) * get((b, d), 0)
            + get((a, d), 0) * get((b, c), 0)
        )
        if val % p:
            return False
    return True


# Plucker relations per step of decomposable_mask: the rows that fail one
# are dropped before the next step.
_RELATION_CHUNK = 16


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


def decomposable_mask(u, n: int, q: int):
    """Which rows of u, grade-2 elements in pair coordinates mod q, are decomposable.

    The batched is_decomposable: every three-term Plucker relation over
    a < b < c < d of range(n).  A relation that leaves a row's support
    vanishes there, so this is the same test, in characteristic 2 as well.
    The relations go in chunks, each on the rows that passed all before it.
    """
    terms = _plucker_terms(n)
    u = u.astype(kernel_dtype(2 * (q - 1) ** 2))
    live = np.arange(len(u))
    for lo in range(0, terms.shape[1], _RELATION_CHUNK):
        ab, cd, ac, bd, ad, bc = terms[:, lo : lo + _RELATION_CHUNK]
        w = u[live]
        rel = w[:, ab] * w[:, cd] - w[:, ac] * w[:, bd] + w[:, ad] * w[:, bc]
        live = live[~mod(rel, q).any(axis=1)]
    mask = np.zeros(len(u), dtype=bool)
    mask[live] = True
    return mask


def factor_decomposable(u: ExtElement):
    """Vectors (x, y) with x ^ y = u; ValueError when u is not decomposable.

    For u = x ^ y, row a of the antisymmetric matrix of u is x_a y - y_a x,
    so two rows a, b with u_ab != 0 span the factor plane, and their wedge
    is u_ab * u.
    """
    if u.grade != 2 or u.is_zero():
        raise ValueError("need a nonzero grade-2 element")
    p = u.p

    def row(i, scale):
        return ExtElement(p, 1, {
            (l if k == i else k,): (v if k == i else -v) * scale
            for (k, l), v in u.terms.items()
            if i in (k, l)
        })

    (a, b), c = min(u.terms.items())
    x, y = row(a, pow(c, p - 2, p)), row(b, 1)
    if wedge(x, y) != u:
        raise ValueError("element is not decomposable")
    return x, y


@dataclass(frozen=True)
class Plane:
    """A projective line of 2-planes: reduced-echelon basis of a 2-dim subspace."""

    n: int
    p: int
    basis: tuple[tuple[int, ...], tuple[int, ...]]

    @classmethod
    def from_pair(cls, x: ExtElement, y: ExtElement, n: int) -> "Plane":
        p = x.p
        rows = []
        for v in (x, y):
            rows.append([v.terms.get((i,), 0) for i in range(n)])
        red, _ = rref(rows, n, p)
        if len(red) != 2:
            raise ValueError("vectors do not span a plane")
        return cls(n, p, (tuple(red[0]), tuple(red[1])))

    def points(self):
        """The q+1 projective points on the plane, first nonzero coordinate 1."""
        p = self.p
        r0, r1 = self.basis
        pts = [r1]  # already normalized by rref
        for t in range(p):
            v = tuple((a + t * b) % p for a, b in zip(r0, r1))
            pts.append(v)  # leading 1 of r0 survives: already normalized
        return pts


def i2_slice(arr: Arrangement, q: int, i2: Subspace | None = None) -> Subspace:
    """I_2 of arr over F_q: i2 when given, once checked to have its shape, else built."""
    if i2 is None:
        return os_ideal_part(arr, 2, q)
    if (i2.n, i2.k, i2.p) != (arr.n, 2, q):
        raise InputError(
            f"the given slice (n={i2.n}, grade {i2.k}, F_{i2.p}) is not I_2 of "
            f"{arr.name} (n={arr.n}) over F_{q}"
        )
    return i2


def decomposables_in_I2_bruteforce(
    arr: Arrangement, q: int, budget: int | None = None, i2: Subspace | None = None
):
    """All 2-planes whose Plucker point lies in P(I_2), by full F_q enumeration.

    Candidate count is (q^dim - 1)/(q - 1); anything over the budget raises
    BudgetError before any work happens.  Candidates are scanned in batches
    of coefficient vectors over the echelon basis of I_2, and only those
    that pass decomposable_mask are factored.  A given i2 supplies I_2.
    """
    check_enumeration_field(q)
    budget = DEFAULT_BUDGET if budget is None else budget
    sub = i2_slice(arr, q, i2)
    m = sub.dim()
    candidates = (q**m - 1) // (q - 1) if m else 0
    if candidates > budget:
        raise BudgetError(candidates, budget, "decomposable search in P(I_2)")
    basis = np.array(sub.rows, dtype=np.int64).reshape(m, sub.ambient_dim())
    planes = []
    for coeffs in projective_points(q, m):
        u = matmul_mod(coeffs, basis, q)
        for row in u[decomposable_mask(u, arr.n, q)].tolist():
            elem = sub.element_from_vec(row)
            if is_decomposable(elem):
                x, y = factor_decomposable(elem)
                planes.append(Plane.from_pair(x, y, arr.n))
    return sorted(planes, key=lambda pl: pl.basis)
