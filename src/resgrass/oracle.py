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
from .exterior import ExtElement, Subspace, ideal_slice, os_ideal_part, wedge_table
from .field import DEFAULT_MODULUS, batch_rank, check_enumeration_field, check_kernel_modulus
from .field import matmul_mod, projective_points, rref_mod
from .resonance import DECOMPOSABLE_SEARCH, decomposables_in_I2_bruteforce, i2_slice

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
    requires a realization.
    """

    def __init__(self, arr: Arrangement, p: int = DEFAULT_MODULUS, up_to: int = 1):
        if up_to < 0:
            raise InputError("up_to must be nonnegative")
        check_kernel_modulus(p)
        if up_to >= 2 and arr.matrix is None:
            raise InputError(
                "cohomology above grade 1 needs I_3 and deeper, which require "
                "a realization matrix; this arrangement is flats-only"
            )
        circs, ell = circuits(arr, up_to + 2, p)
        if up_to >= 2 and up_to > ell:
            raise InputError(f"up_to={up_to} exceeds the arrangement rank {ell}")
        self.arr, self.p, self.up_to = arr, p, up_to
        self.parts = {k: ideal_slice(arr.n, k, p, circs) for k in range(1, up_to + 2)}
        self._coset_cols = {k: sub.coset_columns() for k, sub in self.parts.items()}
        self.ambient_dims = (1, *(len(self._coset_cols[k]) for k in range(1, up_to + 1)))
        # grade k's table: e_i ^ e_s over the coset basis e_s of A^k, whose
        # size is ambient_dims[k], in grade k+1 coordinates
        self._tables = [
            wedge_table([()] if k == 0 else self.parts[k].coset_subsets(), self.parts[k + 1])
            for k in range(up_to + 1)
        ]

    def differentials(self, pt: ExtElement):
        """The matrices of d_0..d_up_to at pt, rows and columns in coset coordinates.

        Row s of d_k is pt ^ e_s reduced mod I_{k+1}: pt's coordinates go
        through grade k's wedge table, one matrix of grade k+1 coordinates,
        reduced in one step.
        """
        _check_point(pt)
        if pt.p != self.p:
            raise InputError("point modulus does not match the complex")
        a = np.zeros(self.arr.n, dtype=np.int64)
        for (i,), c in pt.terms.items():
            a[i] = c
        mats = []
        for k, (rows, gens, cols, signs) in enumerate(self._tables):
            target = self.parts[k + 1]
            d = np.zeros((self.ambient_dims[k], target.ambient_dim()), dtype=np.int64)
            d[rows, cols] = a[gens] * signs
            mats.append(target.reduce_rows(d)[:, self._coset_cols[k + 1]])
        return mats

    def profile(self, pt: ExtElement) -> CohomologyProfile:
        mats = self.differentials(pt)
        ranks = [len(rref_mod(m, self.p)[1]) for m in mats]
        dims = []
        for k in range(self.up_to + 1):
            below = ranks[k - 1] if k else 0
            dims.append(self.ambient_dims[k] - ranks[k] - below)
        return CohomologyProfile(tuple(dims), self.ambient_dims, ranks[-1])


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


def _wedge_map(n: int, sub: Subspace):
    """W with (W[i] @ a)[r] = coset coordinate r of (a ^ e_i) reduced mod I_2.

    Built from the wedge table of the 1-subsets: column j of W[i] is
    e_j ^ e_i.  W times a batch of points, one point per column, holds the
    columns a ^ e_i of every point's wedge matrix, batch innermost: shape
    (n, rows, batch), the layout batch_rank eliminates in.
    """
    rows, gens, cols, signs = wedge_table([(i,) for i in range(n)], sub)
    w = np.zeros((n, n, sub.ambient_dim()), dtype=np.int64)
    w[rows, gens, cols] = signs
    red = sub.reduce_rows(w.reshape(n * n, -1))[:, sub.coset_columns()]
    return np.ascontiguousarray(red.reshape(n, n, -1).transpose(0, 2, 1))


def _resonant_rows(batches, wedge_map, q: int):
    """The resonant points of each batch: those whose wedge matrix has rank below n - 1.

    The points of a batch share their leading coordinate l, with a_l = 1.
    Since a ^ a = 0, column l of the wedge matrix is minus the sum of a_i
    times column i over i != l, so the other n - 1 columns have the same
    rank, and only they are eliminated.
    """
    n = len(wedge_map)
    # a generator keeps one batch's arrays alive while the next is built; freeing
    # them after every batch made the scan about a quarter slower (page faults)
    for pts in batches:
        lead = int(np.flatnonzero(pts[0])[0])
        # the points as contiguous columns: a strided right operand made the
        # product about twice as slow
        cols = matmul_mod(np.delete(wedge_map, lead, axis=0), np.ascontiguousarray(pts.T), q)
        # (batch, rows, n - 1) as a view of the (n - 1, rows, batch) columns,
        # which batch_rank transposes back without a copy
        yield pts[batch_rank(cols.transpose(2, 1, 0), q) < n - 1]


def enumerate_r1(
    arr: Arrangement, q: int, budget: int | None = None, i2: Subspace | None = None
):
    """All resonant points of P^{n-1}(F_q), as sorted normalized tuples.

    Candidates are scanned in batches.  One product gives the reduced wedge
    matrices of a whole batch, less the column of its leading coordinate,
    one batched elimination their ranks, and a point is resonant when its
    rank is below n - 1.  A given i2 supplies I_2.
    """
    check_enumeration_field(q)
    n = arr.n
    check_budget(q, n, budget, POINT_ENUMERATION)
    wedge_map = _wedge_map(n, i2_slice(arr, q, i2))
    found = []
    for hits in _resonant_rows(projective_points(q, n), wedge_map, q):
        found.extend(map(tuple, hits.tolist()))
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
    routes share one I_2, and both budgets are checked before either scan.
    """
    check_enumeration_field(q)
    i2 = os_ideal_part(arr, 2, q)
    check_budget(q, i2.dim(), budget, DECOMPOSABLE_SEARCH)
    check_budget(q, arr.n, budget, POINT_ENUMERATION)
    planes = decomposables_in_I2_bruteforce(arr, q, budget, i2)
    resonant = set(enumerate_r1(arr, q, budget, i2))
    union = set()
    disjoint = True
    for pl in planes:
        pts = set(pl.points())
        if union & pts:
            disjoint = False
        union |= pts
    missing = tuple(sorted(union - resonant))
    extra = tuple(sorted(resonant - union))
    return Prop21Report(
        arrangement=arr.name,
        q=q,
        agree=not missing and not extra,
        n_resonant=len(resonant),
        n_planes=len(planes),
        n_plane_points=len(union),
        planes_pairwise_disjoint=disjoint,
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
