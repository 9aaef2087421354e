"""First resonance varieties via the Grassmannian of 2-planes.

Each dependent triple of hyperplanes contributes a distinguished point of
P(Lambda^2), the boundary of the triple, and these points span I_2, the
degree-2 part of the Orlik-Solomon ideal.  The first resonance variety is
G(2, n) intersected with P(I_2): in coordinates on I_2 its ideal is the
Plucker quadrics pulled back to I_2.  Its Hilbert polynomial is the headline
output; an exact decomposable search over a small field, which fixes the
coordinates on I_2 one at a time, gives the same locus point by point for
cross-checking.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Arrangement, dependent_sets
from .components import CensusStop, census, decode_hp
from .errors import check_budget
from .exterior import ExtElement, Subspace, boundary, os_ideal_part
from .field import (
    BATCH_ROWS,
    DEFAULT_MODULUS,
    check_kernel_modulus,
    inv_mod,
    kernel_basis,
    kernel_dtype,
    mod,
)
from .grobner import PluckerRing, PolyRing, _F4Engine, _ints, _plucker_terms, _touched
from .grobner import plucker_entries
# perfbench's tracer test wraps resonance.buchberger; nothing here calls it
from .grobner import buchberger  # noqa: F401
from .hilbert import MonomialIdeal, format_hp, hilbert_numerator, hilbert_polynomial


def os_points(arr: Arrangement, p: int = DEFAULT_MODULUS) -> list[ExtElement]:
    """One point of P(Lambda^2) per dependent triple: its boundary, the (+1, -1, +1) pattern."""
    return [boundary(t, p) for t in dependent_sets(arr, 3, p)]


def span_forms(points, ring: PluckerRing):
    """Linear forms cutting out the projective span of the given grade-2 points.

    The points are read in the ring's pair coordinates.  With no points the
    span is empty and every coordinate must vanish, so all ring variables
    come back.
    """
    for pt in points:
        if pt.p != ring.p or pt.grade != 2 or any(b >= ring.n for _, b in pt.terms):
            raise ValueError("point does not match the ring")
    rows = [[pt.terms.get(pr, 0) for pr in ring.pairs] for pt in points]
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
    # the Groebner engine's counters (GroebnerBasis.stats) and the Hilbert
    # recursion's calls and memo hits (hilbert_calls, hilbert_hits), the
    # component census (Census.summary, with the stop hook's checks and
    # certificate) and the HP's decode (decode_hp); to_json shows them
    # under stats only when asked
    engine: dict = field(default_factory=dict)
    census: dict = field(default_factory=dict)
    decode: dict | None = None

    def to_json(self, stats: bool = False) -> str:
        obj = dict(vars(self))  # shallow: dataclasses.asdict would deep-copy the engine's record
        extra = {k: obj.pop(k) for k in ("engine", "census", "decode")}
        return json.dumps(dict(obj, stats=extra) if stats else obj)


def r1_hilbert(arr: Arrangement, p: int = DEFAULT_MODULUS) -> ResonanceReport:
    """Hilbert polynomial of G(2, n) intersected with P(I_2), in coordinates on I_2.

    Row r of the reduced basis of I_2 gives the variable y_r, which equals
    the pair coordinate of its pivot on I_2.  Every pair coordinate w_ab is
    the linear form sum_r y_r * rows[r][ab], and the Plucker quadrics pulled
    back along those forms generate the ideal in dim I_2 variables:
    plucker_entries reads the forms off the rows and gives each quadric of
    the indices they touch once up to a scalar, as the engine's entries.
    The OS points are counted off the circuits I_2 was built from, its
    dependent triples.  With none, I_2 = 0, no quadric is formed, the engine
    runs no degree and the HP is 0.  The engine stops once the leads' HP
    equals the one the census of components explains (CensusStop): by the
    count along the open axes when that HP is a constant, by the Hilbert
    series otherwise.  A stopped run reports the census's HP, since the
    equality certifies it; a run to the end takes its HP from the numerator
    of the final leads, read off the engine as digit rows, or from the
    hook's last numerator when it belongs to them.  No Poly is formed.
    """
    t0 = time.perf_counter()
    i2 = os_ideal_part(arr, 2, p)
    t1 = time.perf_counter()
    ring = PolyRing(i2.dim(), p)
    found = census(i2)
    stop = CensusStop(ring, found.explained)
    quads = plucker_entries(ring.nvars, p, i2.rows)
    engine = _F4Engine(ring, {2: quads} if len(quads[0]) else {})
    engine.run(stop)
    t2 = time.perf_counter()
    leads = engine.pairs.digits
    if stop.certificate:
        hp = found.explained
    else:
        if stop.numer is None or stop.leads != len(leads):
            stop.numer = hilbert_numerator(MonomialIdeal(ring.ord, _ints(leads), leads), stop.count)
        hp = hilbert_polynomial(stop.numer, ring.nvars)
    t3 = time.perf_counter()
    ms = lambda a, b: round((b - a) * 1000.0, 3)
    return ResonanceReport(
        arrangement=arr.name,
        n=arr.n,
        p=p,
        hilbert=format_hp(hp),
        n_os_points=len(i2.circuits),
        n_span_forms=i2.ambient_dim() - i2.dim(),
        timings_ms={
            "span": ms(t0, t1),
            "groebner": ms(t1, t2),
            "hilbert": ms(t2, t3),
            "total": ms(t0, t3),
        },
        engine=dict(engine.stats(), hilbert_calls=stop.count["calls"],
                    hilbert_hits=stop.count["hits"]),
        census=dict(found.summary(), checks=stop.checks, certificate=stop.certificate),
        decode=decode_hp(hp),
    )


def is_decomposable(u: ExtElement) -> bool:
    """Whether a grade-2 element is a wedge of two vectors.

    Tested by the three-term Plucker relations on the support, relabelled
    0..s-1 and read as one row of Python ints in lex pair order, so exact
    for every prime; this is the u ^ u = 0 criterion in a form that also
    survives characteristic 2.
    """
    if u.grade != 2:
        raise ValueError("decomposability test expects grade 2")
    keys = np.array(list(u.terms), np.int64).reshape(-1, 2)
    idx = np.unique(keys)
    a, b = np.searchsorted(idx, keys).T
    s = len(idx)
    w = np.zeros((1, s * (s - 1) // 2), object)
    w[0, a * (2 * s - a - 1) // 2 + b - a - 1] = list(u.terms.values())
    return bool(_relations_hold(w, _plucker_terms(s), u.p)[0])


DECOMPOSABLE_SEARCH = "decomposable search in P(I_2)"


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
    """All 2-planes whose Plucker point lies in P(I_2), by an exact search over F_q.

    The budget counts all (q^dim - 1)/(q - 1) points of P(I_2), although the
    search tests far fewer; I_2 is built first, since dim is its dimension,
    and anything over the budget raises BudgetError before the search runs.
    """
    check_kernel_modulus(q, "enumeration field size")
    sub = os_ideal_part(arr, 2, q)
    check_budget(q, sub.dim(), budget, DECOMPOSABLE_SEARCH)
    return _decomposable_planes(sub)


def _relations_hold(w, terms, q: int):
    """Which rows of w, pair coordinates mod q, satisfy every relation (_plucker_terms columns)."""
    ab, cd, ac, bd, ad, bc = terms
    return ~mod(w[:, ab] * w[:, cd] - w[:, ac] * w[:, bd] + w[:, ad] * w[:, bc], q).any(axis=1)


def _decomposable_planes(sub: Subspace):
    """The planes of decomposables_in_I2_bruteforce, sub being I_2 over F_q.

    A point of P(I_2) is u = sum_r c_r rows[r] over the m echelon rows of
    I_2, and the search fixes c_0, c_1, ... in turn.  Since I_2 is the sum
    of its parts I_2(X) over the rank-2 flats X (Orlik and Terao,
    Arrangements of Hyperplanes, 3.1), each Plucker relation reads few rows
    in its six pair columns; the last of them is its last variable, and a
    relation that no row reads vanishes on I_2.  Stage j extends each
    nonzero prefix by every c_j and the zero prefix by 1, so candidates are
    normalized, and keeps those on which the relations with last variable j
    hold, in batches of BATCH_ROWS.  A candidate falls only where a relation
    it fixes fails, and each relation is tested once, so the survivors are
    the decomposables of P(I_2).

    A survivor u is x ^ y.  With (i, j) its lex-first pair with w_ij != 0,
    column j and row i of its antisymmetric matrix, over w_ij, are the
    reduced echelon basis of span(x, y), and their wedge is u / w_ij; a
    survivor where it is not raises ValueError.  The search runs on the
    pairs inside the indices that I_2 touches, and u is zero off them.
    """
    n, q, m = sub.n, sub.p, sub.dim()
    if not m:
        return []
    idx, inside = _touched(sub.rows.any(axis=0), n)
    wide = kernel_dtype(2 * (q - 1) ** 2)
    rows, terms = sub.rows[:, inside].astype(wide), _plucker_terms(len(idx))
    reads = (rows != 0)[:, terms].any(axis=1)  # reads[r, t]: row r is nonzero on relation t
    last = np.where(reads.any(axis=0), m - 1 - reads[::-1].argmax(axis=0), -1)
    live = rows[:0].astype(kernel_dtype(q))
    for j in range(m):
        # candidate k is base[k // q] + (k % q) rows[j]: base's last row,
        # rows[j] itself with c = 0, is the zero prefix extended by 1
        base = np.concatenate([live, rows[j : j + 1]])
        total, kept, stage = len(live) * q + 1, [], terms[:, last == j]
        for lo in range(0, total, BATCH_ROWS):
            s, c = np.divmod(np.arange(lo, min(lo + BATCH_ROWS, total)), q)
            w = mod(base[s] + c.astype(wide)[:, None] * rows[j], q)
            kept.append(w[_relations_hold(w, stage, q)])
        live = np.concatenate(kept).astype(live.dtype)
    u = np.zeros((len(live), len(inside)), np.int64)
    u[:, inside], pairs, h = live, np.triu_indices(n, 1), np.arange(len(live))
    mats = np.zeros((len(u), n, n), dtype=np.int64)
    mats[:, pairs[0], pairs[1]], mats[:, pairs[1], pairs[0]] = u, -u
    lead = (u != 0).argmax(axis=1)
    inv = inv_mod(u[h, lead], q)[:, None]
    v1, v2 = mod(mats[h, :, pairs[1][lead]] * inv, q), mod(mats[h, pairs[0][lead]] * inv, q)
    wedge = v1[:, pairs[0]] * v2[:, pairs[1]] - v1[:, pairs[1]] * v2[:, pairs[0]]
    if (mod(wedge, q) != mod(u * inv, q)).any():
        raise ValueError("a decomposable candidate fails the wedge check v1 ^ v2 = u / w_ij")
    planes = [Plane(n, q, (tuple(a), tuple(b))) for a, b in zip(v1.tolist(), v2.tolist())]
    return sorted(planes, key=lambda pl: pl.basis)
