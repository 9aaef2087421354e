"""Aomoto-complex oracle for resonance checks.

Resonance is decided here straight from the definition: build the cochain
complex (A, a) with A^k = Lambda^k / I_k and differential "wedge with a",
then read cohomology dimensions off exact ranks.  No Groebner bases are
involved, so this module cross-validates the Grassmannian pipeline rather
than depending on it.  Exhaustive small-field enumeration closes the loop:
the resonant points found by rank tests must match the union of planes
found by the decomposable search in P(I_2).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .arrangement import Arrangement, circuits
from .errors import InputError, check_budget
from .exterior import ExtElement, Subspace, ideal_slice
from .field import BATCH_ROWS, DEFAULT_MODULUS, batch_rank, check_kernel_modulus
from .field import matmul_mod, projective_points, rref_mod
from .resonance import DECOMPOSABLE_SEARCH, _decomposable_planes

POINT_ENUMERATION = "resonant point enumeration"


def _check_point(pt: ExtElement):
    if pt.grade != 1:
        raise InputError(f"expected a grade-1 element, got grade {pt.grade}")
    if pt.is_zero():
        raise InputError("the zero vector is not a projective point")


@dataclass(frozen=True)
class CohomologyProfile:
    """Cohomology dimensions h^0..h^m of an Aomoto complex.

    last_rank is the rank of the final differential d_m, which is what the
    truncated Euler identity needs: sum (-1)^k h^k equals
    sum (-1)^k dim A^k - (-1)^m last_rank.
    """

    dims: tuple[int, ...]
    ambient_dims: tuple[int, ...]
    last_rank: int

    def __post_init__(self):
        # both fail only when a rank came out wrong
        if any(h < 0 for h in self.dims):
            raise ValueError(f"negative cohomology dimension in {self.dims}")
        m = len(self.dims) - 1
        ambient = sum((-1) ** k * d for k, d in enumerate(self.ambient_dims))
        if self.euler() != ambient - (-1) ** m * self.last_rank:
            raise ValueError(f"profile {self.dims} breaks the truncated Euler identity")

    def euler(self) -> int:
        return sum((-1) ** k * h for k, h in enumerate(self.dims))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class AomotoComplex:
    """The complex (A, a) over F_p in coset coordinates, reusable across points.

    Grades 0..up_to are kept; the target grade up_to+1 is needed for the last
    differential.  One arrangement.circuits pass serves every slice
    I_1..I_{up_to+1} (ideal_slice) and gives the rank.  Combinatorial
    arrangements know their dependencies only up to size 3, so up_to >= 2
    requires a realization.  wedges[k] is grade k's reduced wedge map, so
    that d_k at a point is one product (differentials).
    """

    def __init__(self, arr: Arrangement, p: int = DEFAULT_MODULUS, up_to: int = 1):
        if up_to < 0:
            raise InputError(f"cohomology grade {up_to} is negative")
        check_kernel_modulus(p)
        if up_to >= 2 and arr.matrix is None:
            raise InputError(
                "cohomology above grade 1 needs I_3 and deeper, which require "
                "a realization matrix; this arrangement is flats-only"
            )
        circs, ell = circuits(arr, up_to + 2, p)
        if up_to >= 2 and up_to > ell:
            raise InputError(f"cohomology grade {up_to} exceeds the arrangement rank {ell}")
        self.arr, self.p, self.up_to = arr, p, up_to
        self.parts = {k: ideal_slice(arr.n, k, p, circs) for k in range(1, up_to + 2)}
        # the coset basis of A^k for k = 0..up_to
        bases = [[()]] + [self.parts[k].coset_subsets() for k in range(1, up_to + 1)]
        self.ambient_dims = tuple(map(len, bases))
        self.wedges = [_reduced_wedges(b, self.parts[k + 1]) for k, b in enumerate(bases)]

    def differentials(self, pts):
        """The matrices of d_0..d_up_to at a batch of points, in coset coordinates.

        pts is a (batch, n) array of residues mod p.  d_k comes as one
        (dim A^k, dim A^(k+1), batch) array, the batch innermost: entry
        (s, t, b) is coset coordinate t of pts[b] ^ e_s reduced mod I_{k+1},
        and the whole array is one matmul_mod of grade k's wedge map.
        """
        cols = np.ascontiguousarray(np.asarray(pts, dtype=np.int64).T)
        return [matmul_mod(w, cols, self.p) for w in self.wedges]

    def profile(self, pt: ExtElement) -> CohomologyProfile:
        _check_point(pt)
        if pt.p != self.p:
            raise InputError("point modulus does not match the complex")
        a = np.zeros((1, self.arr.n), dtype=np.int64)
        for (i,), c in pt.terms.items():
            if not 0 <= i < self.arr.n:
                raise InputError(f"point index {i} is outside 0..{self.arr.n - 1}")
            a[0, i] = c
        ranks = [len(rref_mod(d[:, :, 0], self.p)[1]) for d in self.differentials(a)]
        dims = []
        for k in range(self.up_to + 1):
            below = ranks[k - 1] if k else 0
            dims.append(self.ambient_dims[k] - ranks[k] - below)
        return CohomologyProfile(tuple(dims), self.ambient_dims, ranks[-1])


def _reduced_wedges(subsets, target: Subspace):
    """W with W[s, :, i] = e_i ^ e_s reduced mod target, in target's coset coordinates.

    The products are read off the facets of target's subsets: e_i ^ e_s =
    (-1)^j e_t when i is the j-th element of t and s is t without it.  e_t
    reduces to itself on a coset column t and to minus the coset part of its
    echelon row on a pivot column, so each product gathers one row of that
    normal-form table.  Shape (len(subsets), coset dim, n): times a batch of
    points as columns it gives their differentials batch innermost, the
    layout batch_rank eliminates in.
    """
    p, coset = target.p, target.coset_columns()
    normal = np.zeros((target.ambient_dim(), len(coset)), dtype=np.int64)
    normal[coset, np.arange(len(coset))] = 1
    if target.pivots:
        normal[target.pivots] = -target.rows[:, coset] % p
    row = {s: r for r, s in enumerate(subsets)}
    entries = [
        (row[s], i, c, (-1) ** j)
        for c, t in enumerate(target.subsets)
        for j, i in enumerate(t)
        if (s := t[:j] + t[j + 1 :]) in row
    ]
    rows, gens, cols, signs = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    w = np.zeros((len(subsets), len(coset), target.n), dtype=np.int64)
    w[rows, :, gens] = signs[:, None] * normal[cols] % p
    return w


def aomoto_profile(arr: Arrangement, pt: ExtElement, up_to: int = 1) -> CohomologyProfile:
    """Cohomology dimensions h^0..h^up_to of (A, a) at a = pt."""
    return AomotoComplex(arr, pt.p, up_to).profile(pt)


def is_resonant_1(arr: Arrangement, pt: ExtElement) -> bool:
    """Whether some b outside span(pt) has pt ^ b in I_2.

    The rank test of enumerate_r1 on one point: the map b -> (pt ^ b mod
    I_2) always kills pt, so resonance is exactly a kernel of dimension 2
    or more, rank d_1 < n - 1, which is h^1 > 0.
    """
    return aomoto_profile(arr, pt).dims[1] > 0


def enumerate_r1(arr: Arrangement, q: int, budget: int | None = None):
    """All resonant points of P^{n-1}(F_q), as sorted normalized tuples, by rank d_1 < n - 1."""
    check_kernel_modulus(q, "enumeration field size")
    check_budget(q, arr.n, budget, POINT_ENUMERATION)
    return _resonant_points(AomotoComplex(arr, q))


def _compressor(rows: int, cols: int, q: int):
    """A fixed (rows, cols) matrix mod q: entry k in C order is 48271^(k+1) mod 2^31 - 1."""
    vals = [pow(48271, k, 2147483647) % q for k in range(1, rows * cols + 1)]
    return np.array(vals, dtype=np.int64).reshape(rows, cols)


def _resonant_points(cx: AomotoComplex):
    """The points of P^{n-1}(F_q), q = cx.p, where cx has h^1 > 0, sorted.

    h^1 = n - 1 - rank d_1, so a point is resonant when its rank is below
    n - 1.  Candidates are scanned in batches.  The points of a batch share
    their leading coordinate l, with a_l = 1.  Since a ^ a = 0, row l of d_1
    is minus the sum of a_i times row i over i != l, so the other n - 1 rows
    have the same rank: one product of grade 1's wedge map less row l gives
    them for the whole batch, and one batched elimination their ranks.
    A^1 has the basis e_0..e_{n-1}, since I_1 = 0.

    The scan ranks those rows M after a fixed map R (_compressor) takes A^2
    to r = n + 3 coordinates.  rank(R M) <= rank(M) <= n - 1, so rank n - 1
    certifies that a point is not resonant; R keeps the rank of almost every
    M (Cheung, Kwok and Lau, J. ACM 60(5), 2013).  The other points are
    ranked again on all n rows of d_1, in batches of at most BATCH_ROWS
    shared by any leads, so R never decides an answer.  With r >= dim A^2
    there is no R, and only the resonant points are ranked twice.
    """
    n, q, full, r = cx.arr.n, cx.p, cx.wedges[1], cx.arr.n + 3
    small = matmul_mod(_compressor(r, full.shape[1], q), full, q) if r < full.shape[1] else full

    def deficient(w, pts):
        # contiguous point columns (a strided operand made the product about
        # twice as slow); batch_rank takes the product as a transposed view
        d = matmul_mod(w, np.ascontiguousarray(pts.T), q)
        return pts[batch_rank(d.transpose(2, 1, 0), q) < n - 1]

    found, pending = [], np.zeros((0, n), dtype=np.int64)
    for pts in projective_points(q, n):
        lead = int(np.flatnonzero(pts[0])[0])
        pending = np.concatenate([pending, deficient(np.delete(small, lead, axis=0), pts)])
        if len(pending) >= BATCH_ROWS:
            found.extend(map(tuple, deficient(full, pending[:BATCH_ROWS]).tolist()))
            pending = pending[BATCH_ROWS:]
    found.extend(map(tuple, deficient(full, pending).tolist()))
    return sorted(found)


@dataclass(frozen=True)
class Prop21Report:
    """Outcome of comparing rank-test resonance with the decomposable planes."""

    arrangement: str
    q: int
    agree: bool
    n_resonant: int
    n_planes: int
    n_plane_points: int
    planes_pairwise_disjoint: bool
    missing: tuple  # plane points the rank test did not flag
    extra: tuple  # flagged points on no plane

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def check_prop21(arr: Arrangement, q: int, budget: int | None = None) -> Prop21Report:
    """Compare the two routes to R^1 over F_q point by point.

    Route one enumerates resonant points by rank tests; route two takes the
    union of F_q-points of the planes found by the decomposable search.
    Agreement plus the symmetric difference goes into the report.  Both
    routes share one Aomoto complex and its I_2, and both budgets are
    checked before either scan.
    """
    check_kernel_modulus(q, "enumeration field size")
    cx = AomotoComplex(arr, q)
    check_budget(q, cx.parts[2].dim(), budget, DECOMPOSABLE_SEARCH)
    check_budget(q, arr.n, budget, POINT_ENUMERATION)
    planes = _decomposable_planes(cx.parts[2])
    resonant = set(_resonant_points(cx))
    # the q + 1 points of a plane are distinct, so only a point on two planes repeats
    on = [pt for pl in planes for pt in pl.points()]
    union = set(on)
    missing = tuple(sorted(union - resonant))
    extra = tuple(sorted(resonant - union))
    return Prop21Report(
        arrangement=arr.name,
        q=q,
        agree=not missing and not extra,
        n_resonant=len(resonant),
        n_planes=len(planes),
        n_plane_points=len(union),
        planes_pairwise_disjoint=len(union) == len(on),
        missing=missing,
        extra=extra,
    )


@dataclass(frozen=True)
class KResonance:
    """Grade-k resonance verdict: resonant follows the definition h^k != 0."""

    k: int
    h: int
    resonant: bool
    profile: CohomologyProfile  # h^0..h^k at the point, h = profile.dims[k]

    def __bool__(self) -> bool:
        return self.resonant


def is_resonant_k(arr: Arrangement, pt: ExtElement, k: int) -> KResonance:
    """Grade-k resonance of pt by cohomology."""
    if k < 1:
        raise InputError("resonance grade must be at least 1")
    profile = aomoto_profile(arr, pt, up_to=k)
    h = profile.dims[k]
    return KResonance(k, h, h != 0, profile)
