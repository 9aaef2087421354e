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
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .arrangement import Arrangement, dependent_sets
from .errors import check_budget
from .exterior import ExtElement, Subspace, os_ideal_part
from .field import (
    DEFAULT_MODULUS,
    check_kernel_modulus,
    kernel_basis,
    kernel_dtype,
    matmul_mod,
    mod,
    projective_points,
    rref_mod,
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
        obj = asdict(self)
        del obj["engine"]
        return json.dumps(obj)


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
            pr: ring.linear_form(i2.rows[:, c].tolist())
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


DECOMPOSABLE_SEARCH = "decomposable search in P(I_2)"

# Plucker relations in the first step of decomposable_mask; each later step
# takes four times as many, on the rows that passed every step before it.
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
    The relations go in chunks of _RELATION_CHUNK, then four times the last
    chunk, each on the rows that passed all before it: a row is dropped only
    when a relation fails on it, so the chunks never change the mask.
    """
    terms = _plucker_terms(n)
    u = u.astype(kernel_dtype(2 * (q - 1) ** 2))
    live = np.arange(len(u))
    lo, size = 0, _RELATION_CHUNK
    while lo < terms.shape[1] and len(live):
        ab, cd, ac, bd, ad, bc = terms[:, lo : lo + size]
        w = u[live]
        rel = w[:, ab] * w[:, cd] - w[:, ac] * w[:, bd] + w[:, ad] * w[:, bc]
        live = live[~mod(rel, q).any(axis=1)]
        lo, size = lo + size, 4 * size
    mask = np.zeros(len(u), dtype=bool)
    mask[live] = True
    return mask


@dataclass(frozen=True)
class Plane:
    """A projective line of 2-planes: reduced-echelon basis of a 2-dim subspace."""

    n: int
    p: int
    basis: tuple[tuple[int, ...], tuple[int, ...]]

    def points(self):
        """The q+1 projective points on the plane, first nonzero coordinate 1."""
        p = self.p
        r0, r1 = self.basis
        pts = [r1]  # already normalized by rref
        for t in range(p):
            v = tuple((a + t * b) % p for a, b in zip(r0, r1))
            pts.append(v)  # leading 1 of r0 survives: already normalized
        return pts


def decomposables_in_I2_bruteforce(arr: Arrangement, q: int, budget: int | None = None):
    """All 2-planes whose Plucker point lies in P(I_2), by full F_q enumeration.

    Candidate count is (q^dim - 1)/(q - 1); anything over the budget raises
    BudgetError before any work happens.
    """
    check_kernel_modulus(q, "enumeration field size")
    sub = os_ideal_part(arr, 2, q)
    check_budget(q, sub.dim(), budget, DECOMPOSABLE_SEARCH)
    return _decomposable_planes(sub)


def _decomposable_planes(sub: Subspace):
    """The planes of decomposables_in_I2_bruteforce, sub being I_2 over F_q.

    Candidates are scanned in batches of coefficient vectors over the
    echelon basis of I_2.  A candidate u that passes decomposable_mask is
    x ^ y, and row a of its antisymmetric matrix is x_a y - y_a x, so the
    rows span span(x, y): one rref_mod gives the plane's basis.  A rank
    other than 2 raises ValueError.
    """
    n, q = sub.n, sub.p
    upper = np.triu_indices(n, 1)  # the pairs a < b in lex order
    planes = []
    for coeffs in projective_points(q, sub.dim()):
        u = matmul_mod(coeffs, sub.rows, q)
        hits = u[decomposable_mask(u, n, q)]
        mats = np.zeros((len(hits), n, n), dtype=np.int64)
        mats[:, upper[0], upper[1]] = hits
        mats[:, upper[1], upper[0]] = -hits
        for mat in mats:
            red, pivots = rref_mod(mat, q)
            if len(pivots) != 2:
                raise ValueError(f"a decomposable candidate has rank {len(pivots)}, not 2")
            planes.append(Plane(n, q, tuple(map(tuple, red.tolist()))))
    return sorted(planes, key=lambda pl: pl.basis)
