import json
import random
import time
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from resgrass.arrangement import Arrangement, fixture, from_matrix
from resgrass.errors import BudgetError, InputError
from resgrass.exterior import ExtElement, boundary, os_ideal_part, wedge
from resgrass.grobner import PluckerRing, normal_form, plucker_ideal
from resgrass.resonance import (
    Plane,
    decomposable_mask,
    decomposables_in_I2_bruteforce,
    factor_decomposable,
    is_decomposable,
    os_points,
    _RELATION_CHUNK,
    r1_hilbert,
    span_forms,
)

from cases import BOOLEAN, BOUNDARY_PRIME, PENCIL, braid, reference_r1_hilbert, relabelled_a4

P = 31991


def test_os_points_pattern():
    pts = os_points(fixture("A3"))
    assert len(pts) == 4
    first = pts[0]  # triple (0, 1, 2)
    pairs = list(combinations(range(6), 2))
    nonzero = {pairs[i]: c for i, c in enumerate(first.coords) if c}
    assert nonzero == {(1, 2): 1, (0, 2): P - 1, (0, 1): 1}


def test_os_points_hessian_count():
    assert len(os_points(fixture("Hessian"))) == 36


def test_plucker_quadrics_vanish_on_os_points():
    for name in ("A3", "Hessian"):
        arr = fixture(name)
        ring = PluckerRing(arr.n, P)
        quads = plucker_ideal(ring)
        for pt in os_points(arr):
            for q in quads:
                assert q.evaluate(pt.coords) == 0


def test_span_forms_single_point():
    ring = PluckerRing(3, 7)
    pts = os_points(from_matrix([[1, 0, 1], [0, 1, 1]], p=7), p=7)
    assert len(pts) == 1
    assert pts[0].coords == (1, 6, 1)
    forms = span_forms(pts, ring)
    assert [repr(f) for f in forms] == ["w_0_1 - w_1_2", "w_0_2 + w_1_2"]
    # same span as the pair {w01 + w02, w02 + w12}
    for combo in ((1, 1, 0), (0, 1, 1)):
        assert normal_form(ring.linear_form(combo), forms).is_zero()


def test_span_forms_counts():
    a3 = fixture("A3")
    ring = PluckerRing(6, P)
    assert len(span_forms(os_points(a3), ring)) == 11
    hess = fixture("Hessian")
    ring12 = PluckerRing(12, P)
    assert len(span_forms(os_points(hess), ring12)) == 39


def test_span_forms_empty_gives_all_variables():
    ring = PluckerRing(4, 7)
    forms = span_forms([], ring)
    assert [repr(f) for f in forms] == list(ring.names)


def test_r1_hilbert_braid():
    rep = r1_hilbert(fixture("A3"))
    assert rep.hilbert == "5*P_0"
    assert rep.n_os_points == 4
    assert rep.n_span_forms == 11
    assert rep.timings_ms["total"] < 1000.0


def test_r1_hilbert_pencil():
    # three concurrent lines: the whole of P(I_2) is one Grassmannian point
    rep = r1_hilbert(from_matrix([[1, 0, 1], [0, 1, 1]], name="pencil"))
    assert rep.hilbert == "1*P_0"


def test_r1_hilbert_generic_no_flats():
    arr = from_matrix([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]], name="generic4")
    rep = r1_hilbert(arr)
    assert rep.hilbert == "0"
    assert rep.n_os_points == 0
    assert rep.n_span_forms == 6
    assert rep.timings_ms["groebner"] == 0.0


def test_r1_hilbert_disjoint_triples():
    # k pairwise disjoint triple points give k reduced Grassmannian points
    flats9 = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    rep = r1_hilbert(Arrangement(9, flats9, None, "three-triples"))
    assert rep.hilbert == "3*P_0"
    flats6 = ((0, 1, 2), (3, 4, 5))
    rep = r1_hilbert(Arrangement(6, flats6, None, "two-triples"))
    assert rep.hilbert == "2*P_0"


GENERIC4 = from_matrix([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]], name="generic4")
THREE_TRIPLES = Arrangement(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)), None, "three-triples")
TWO_TRIPLES = Arrangement(6, ((0, 1, 2), (3, 4, 5)), None, "two-triples")


def _report_counts(arr, p):
    rep = r1_hilbert(arr, p)
    return rep.hilbert, rep.n_os_points, rep.n_span_forms


@pytest.mark.parametrize(
    "arr",
    [fixture("A3"), relabelled_a4(), PENCIL, BOOLEAN, GENERIC4, THREE_TRIPLES, TWO_TRIPLES],
    ids=lambda arr: arr.name,
)
def test_r1_in_i2_coordinates_equals_the_pair_coordinate_route(arr):
    assert _report_counts(arr, P) == reference_r1_hilbert(arr, P)


def _random_simple_realization(rng, p):
    """A random 3x5 .. 4x7 matrix with small entries whose columns are simple mod p."""
    while True:
        rows, cols = rng.choice(((3, 5), (3, 6), (4, 6), (4, 7)))
        mat = [[rng.randrange(-1, 3) for _ in range(cols)] for _ in range(rows)]
        try:
            return from_matrix(mat, name="random", p=p)
        except InputError:
            continue


@pytest.mark.parametrize("p", [2, 3, 5, 7, P])
def test_r1_in_i2_coordinates_equals_the_pair_coordinate_route_on_random_realizations(p):
    rng = random.Random(40 + p)
    hilberts = set()
    for _ in range(10):
        arr = _random_simple_realization(rng, p)
        got = _report_counts(arr, p)
        assert got == reference_r1_hilbert(arr, p), arr.matrix
        hilberts.add(got[0])
    assert len(hilberts) > 1  # the sample is not all of one kind


@pytest.mark.parametrize(
    "ell, hilbert, cap_s",
    [(4, "15*P_0", 5.0), (5, "35*P_0", 20.0), (6, "70*P_0", 15.0), (7, "126*P_0", 30.0)],
)
def test_r1_braid_ladder(ell, hilbert, cap_s):
    # C(ell+1, 3) local plus C(ell+1, 4) non-local components (Cohen-Suciu 1999)
    t0 = time.perf_counter()
    rep = r1_hilbert(braid(ell))
    wall = time.perf_counter() - t0
    assert rep.hilbert == hilbert
    assert wall < cap_s


def test_report_json_keys():
    rep = r1_hilbert(fixture("A3"))
    obj = json.loads(rep.to_json())
    for key in ("arrangement", "hilbert", "n_os_points", "n_span_forms", "timings_ms"):
        assert key in obj
    assert obj["hilbert"] == "5*P_0"
    assert set(obj["timings_ms"]) == {"span", "groebner", "hilbert", "total"}


def test_is_decomposable():
    rng = random.Random(13)
    for _ in range(20):
        x = ExtElement(P, 1, {(i,): rng.randrange(P) for i in range(6)})
        y = ExtElement(P, 1, {(i,): rng.randrange(P) for i in range(6)})
        assert is_decomposable(wedge(x, y))
    indep = ExtElement(P, 2, {(0, 1): 1, (2, 3): 1})
    assert not is_decomposable(indep)
    assert is_decomposable(boundary((1, 4, 5), P))


def test_factor_decomposable_roundtrip():
    rng = random.Random(14)
    for _ in range(20):
        x = ExtElement(P, 1, {(i,): rng.randrange(P) for i in range(6)})
        y = ExtElement(P, 1, {(i,): rng.randrange(P) for i in range(6)})
        u = wedge(x, y)
        if u.is_zero():
            continue
        a, b = factor_decomposable(u)
        assert wedge(a, b) == u
    with pytest.raises(ValueError):
        factor_decomposable(ExtElement(P, 2, {(0, 1): 1, (2, 3): 1}))


A3_PLANES_F5 = [
    ((0, 0, 1, 0, 0, 4), (0, 0, 0, 1, 0, 4)),  # triple (2,3,5)
    ((0, 1, 0, 0, 0, 4), (0, 0, 0, 0, 1, 4)),  # triple (1,4,5)
    ((1, 0, 0, 0, 4, 0), (0, 0, 0, 1, 4, 0)),  # triple (0,3,4)
    ((1, 0, 4, 0, 0, 0), (0, 1, 4, 0, 0, 0)),  # triple (0,1,2)
    ((1, 0, 4, 0, 4, 1), (0, 1, 4, 1, 4, 0)),  # essential component
]


def test_decomposables_in_I2_braid_over_f5():
    planes = decomposables_in_I2_bruteforce(fixture("A3"), 5)
    assert [pl.basis for pl in planes] == A3_PLANES_F5
    # pairwise disjoint as projective lines
    point_sets = [set(pl.points()) for pl in planes]
    assert all(len(s) == 6 for s in point_sets)
    for i in range(5):
        for j in range(i + 1, 5):
            assert not point_sets[i] & point_sets[j]
    # the wedge of each plane's basis really lies in I_2
    sub = os_ideal_part(fixture("A3"), 2, 5)
    for pl in planes:
        x, y = (ExtElement(5, 1, {(i,): c for i, c in enumerate(v)}) for v in pl.basis)
        assert sub.contains(wedge(x, y))


def test_decomposables_budget():
    with pytest.raises(BudgetError):
        decomposables_in_I2_bruteforce(fixture("A3"), 5, budget=10)
    # dim I_2 = 27 for the Hessian: 2^27 - 1 candidates exceed the default
    with pytest.raises(BudgetError) as exc:
        decomposables_in_I2_bruteforce(fixture("Hessian"), 2)
    assert exc.value.candidates == 2**27 - 1


def test_budget_resolution():
    # an explicit budget is used as given, and None means 10^7
    with pytest.raises(BudgetError) as exc:
        decomposables_in_I2_bruteforce(fixture("A3"), 5, budget=123)
    assert exc.value.budget == 123
    with pytest.raises(BudgetError) as exc:
        decomposables_in_I2_bruteforce(fixture("Hessian"), 2, budget=None)
    assert exc.value.budget == 10_000_000


def test_plane_from_pair_rejects_dependent():
    x = ExtElement(5, 1, {(0,): 1})
    with pytest.raises(ValueError):
        Plane.from_pair(x, x.scale(2), 4)


@pytest.mark.parametrize(
    "arr, q",
    [(fixture("A3"), 2), (fixture("A3"), 5), (fixture("A3"), 7), (braid(4), 2),
     (PENCIL, 2), (PENCIL, 3), (BOOLEAN, 3)],
    ids=["A3/F_2", "A3/F_5", "A3/F_7", "A4/F_2", "pencil/F_2", "pencil/F_3", "boolean/F_3"],
)
def test_decomposable_mask_equals_is_decomposable(arr, q):
    sub = os_ideal_part(arr, 2, q)
    m, ncols = sub.dim(), sub.ambient_dim()
    basis = np.array(sub.rows, dtype=np.int64).reshape(m, ncols)
    coeffs = [
        (0,) * lead + (1,) + tail
        for lead in range(m)
        for tail in product(range(q), repeat=m - lead - 1)
    ]
    u = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), m) @ basis % q
    want = [is_decomposable(sub.element_from_vec(row)) for row in u.tolist()]
    assert decomposable_mask(u, arr.n, q).tolist() == want


def test_decomposable_mask_tests_every_chunk_of_relations():
    # n = 7 has C(7, 4) = 35 relations, and the last chunk holds the last
    # three, (3, 4, 5, 6) among them; e_34 + e_56 fails that relation only,
    # and e_01 + e_23 only (0, 1, 2, 3), the first
    n, q = 7, 5
    pairs = list(combinations(range(n), 2))
    assert comb(n, 4) % _RELATION_CHUNK == 3
    rng = random.Random(7)
    elems = [
        ExtElement(q, 2, {(3, 4): 1, (5, 6): 1}),
        ExtElement(q, 2, {(0, 1): 2, (2, 3): 3}),
    ]
    for _ in range(4):
        x, y = (ExtElement(q, 1, {(i,): rng.randrange(q) for i in range(n)}) for _ in "xy")
        elems.append(wedge(x, y))
    u = np.array([[e.terms.get(pr, 0) for pr in pairs] for e in elems], dtype=np.int64)
    want = [is_decomposable(e) for e in elems]
    assert want[:2] == [False, False] and all(want[2:])
    assert decomposable_mask(u, n, q).tolist() == want


def test_decomposable_mask_at_the_boundary_prime():
    p, n = BOUNDARY_PRIME, 6
    rng = random.Random(31)
    pairs = list(combinations(range(n), 2))
    rows = []
    for _ in range(30):
        x = ExtElement(p, 1, {(i,): rng.choice((1, p - 1, rng.randrange(p))) for i in range(n)})
        y = ExtElement(p, 1, {(i,): rng.choice((1, p - 1, rng.randrange(p))) for i in range(n)})
        w = wedge(x, y)
        rows.append([w.terms.get(pr, 0) for pr in pairs])
        rows.append([rng.choice((0, p - 1, rng.randrange(p))) for _ in pairs])
    u = np.array(rows, dtype=np.int64)
    elems = [ExtElement(p, 2, dict(zip(pairs, row))) for row in rows]
    want = [is_decomposable(e) for e in elems]
    assert decomposable_mask(u, n, p).tolist() == want
    assert want[::2] == [True] * 30 and not any(want[1::2])
