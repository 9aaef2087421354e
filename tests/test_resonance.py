import json
import random
import time
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from resgrass import grobner, resonance
from resgrass.arrangement import Arrangement, fixture, from_matrix
from resgrass.errors import BudgetError
from resgrass.exterior import ExtElement, boundary, os_ideal_part, wedge
from resgrass.field import MAX_KERNEL_MODULUS
from resgrass.grobner import PluckerRing, normal_form, plucker_ideal
from resgrass.resonance import (
    decomposables_in_I2_bruteforce,
    is_decomposable,
    os_points,
    r1_hilbert,
    span_forms,
)

from cases import (
    BOOLEAN,
    BOUNDARY_PRIME,
    PENCIL,
    _RELATION_CHUNK,
    braid,
    decomposable_mask,
    evaluate,
    factor_decomposable,
    pair_coords,
    random_simple_realization,
    reference_decomposable_planes,
    reference_is_decomposable,
    reference_r1_hilbert,
    relabelled_a4,
    subspace_contains,
)

P = 31991


def test_os_points_pattern():
    pts = os_points(fixture("A3"))
    assert len(pts) == 4
    first = pts[0]  # triple (0, 1, 2)
    ring = PluckerRing(6, P)
    nonzero = {pr: c for pr, c in zip(ring.pairs, pair_coords(first, ring)) if c}
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
                assert evaluate(q, pair_coords(pt, ring)) == 0


def test_span_forms_single_point():
    ring = PluckerRing(3, 7)
    pts = os_points(from_matrix([[1, 0, 1], [0, 1, 1]], p=7), p=7)
    assert len(pts) == 1
    assert pair_coords(pts[0], ring) == (1, 6, 1)
    forms = span_forms(pts, ring)
    assert [repr(f) for f in forms] == ["w_0_1 - w_1_2", "w_0_2 + w_1_2"]
    # same span as the pair {w01 + w02, w02 + w12}
    for combo in ((1, 1, 0), (0, 1, 1)):
        assert normal_form(ring.linear_form(combo), forms).is_zero()


def test_span_forms_refuses_points_off_the_ring():
    ring = PluckerRing(3, 7)
    for pt in (
        ExtElement(7, 1, {(0,): 1}),  # grade 1
        boundary((0, 1, 2), 5),  # over another prime
        boundary((0, 1, 3), 7),  # index 3 >= ring.n
    ):
        with pytest.raises(ValueError, match="does not match the ring"):
            span_forms([boundary((0, 1, 2), 7), pt], ring)


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
    # I_2 = 0: the engine runs on zero variables, and the numerator is 1
    assert rep.engine == dict(degrees={}, reductions=0, zero_reductions=0, created=0,
                              pruned_lcm=0, pruned_coprime=0, pair_s=0, hilbert_calls=1,
                              hilbert_hits=0)


def refuse_plucker_terms_above(monkeypatch, module, most: int):
    """Make module._plucker_terms raise for more indices than most, and build them otherwise."""
    real = module._plucker_terms

    def terms(n):
        if n > most:
            raise AssertionError(f"_plucker_terms({n}) built for more than the {most} indices touched")
        return real(n)

    monkeypatch.setattr(module, "_plucker_terms", terms)


def test_r1_hilbert_without_a_dependent_triple_is_quadratic_in_n(monkeypatch):
    # over zero variables plucker_ideal touches no index, so it must not
    # build the C(n, 4) pair indices of _plucker_terms(n): 8.2 million
    # 4-subsets at n = 120, seconds and a gigabyte, against milliseconds
    refuse_plucker_terms_above(monkeypatch, grobner, 0)
    t0 = time.perf_counter()
    rep = r1_hilbert(Arrangement(120, (), None, "flats n=120"))
    assert time.perf_counter() - t0 < 2.0
    assert rep.hilbert == "0" and rep.n_span_forms == comb(120, 2)


@pytest.mark.parametrize(
    "flats, hp",
    [(((0, 1, 2),), "1*P_0"), (((0, 57, 119), (3, 64, 100)), "2*P_0")],
    ids=["one-triple", "two-disjoint-triples"],
)
def test_r1_hilbert_on_a_sparse_support_scales_with_the_support(flats, hp, monkeypatch):
    # the quadrics come from the 4-subsets of the indices I_2 touches only;
    # the C(120, 4) 4-subsets of all indices took seconds and a gigabyte
    refuse_plucker_terms_above(monkeypatch, grobner, 3 * len(flats))
    t0 = time.perf_counter()
    rep = r1_hilbert(Arrangement(120, flats, None, "sparse"))
    assert time.perf_counter() - t0 < 2.0
    assert rep.hilbert == hp and rep.n_os_points == len(flats)


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, P])
def test_r1_in_i2_coordinates_equals_the_pair_coordinate_route_on_random_realizations(p):
    rng = random.Random(40 + p)
    hilberts = set()
    for _ in range(10):
        arr = random_simple_realization(rng, p)
        got = _report_counts(arr, p)
        assert got == reference_r1_hilbert(arr, p), arr.matrix
        hilberts.add(got[0])
    assert len(hilberts) > 1  # the sample is not all of one kind


@pytest.mark.parametrize(
    "ell, hilbert, cap_s",
    [(4, "15*P_0", 5.0), (5, "35*P_0", 20.0), (6, "70*P_0", 15.0), (7, "126*P_0", 30.0),
     (8, "210*P_0", 10.0)],
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
        assert subspace_contains(sub, wedge(x, y))


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


@pytest.mark.parametrize(
    "arr, q",
    [(fixture("A3"), 2), (fixture("A3"), 5), (fixture("A3"), 7), (braid(4), 2), (braid(4), 3),
     (PENCIL, 2), (PENCIL, 3), (BOOLEAN, 2), (BOOLEAN, 3)]
    + [(relabelled_a4(seed), 3) for seed in (11, 12, 13)]
    + [(Arrangement(n, flats, None, "spread"), q) for n, flats, q in (
        (9, ((0, 4, 8),), 3), (10, ((1, 5, 9), (0, 3, 7)), 2), (11, ((0, 5, 10), (2, 5, 7)), 3),
        (12, ((0, 4, 11), (0, 6, 9), (4, 6, 10)), 2))],
    ids=["A3/F_2", "A3/F_5", "A3/F_7", "A4/F_2", "A4/F_3", "pencil/F_2", "pencil/F_3",
         "boolean/F_2", "boolean/F_3", "A4-11/F_3", "A4-12/F_3", "A4-13/F_3",
         "spread-one/F_3", "spread-two-disjoint/F_2", "spread-two-meeting/F_3",
         "spread-three-meeting/F_2"],
)
def test_planes_equal_the_factored_elements(arr, q):
    # the search reads each plane off its antisymmetric matrix; the reference
    # factors each decomposable of an exhaustive scan and reduces the two
    # factors; the search prunes in an order that depends on the labelling.
    # On spread indices it keeps to those I_2 touches, and u is zero off them
    assert decomposables_in_I2_bruteforce(arr, q) == reference_decomposable_planes(arr, q)


@pytest.mark.parametrize(
    "arr, q, tested, exhaustive",
    [(fixture("A3"), 7, 95, 400), (braid(4), 3, 271, 29_524)],
    ids=["A3/F_7", "A4/F_3"],
)
def test_decomposable_search_tests_few_candidates(arr, q, tested, exhaustive, monkeypatch):
    # the search drops a prefix of coefficients once a relation it fixes
    # fails, so it tests far fewer candidates than the points of P(I_2)
    sizes = []
    real = resonance._relations_hold

    def spy(w, terms, p):
        sizes.append(len(w))
        return real(w, terms, p)

    monkeypatch.setattr(resonance, "_relations_hold", spy)
    planes = decomposables_in_I2_bruteforce(arr, q)
    assert len(planes) == {"A3": 5, "A4": 15}[arr.name]
    assert sum(sizes) == tested
    m = os_ideal_part(arr, 2, q).dim()
    assert (q**m - 1) // (q - 1) == exhaustive


def test_decomposable_search_on_a_sparse_support_scales_with_the_support(monkeypatch):
    # two disjoint triples among 80 hyperplanes: 6 indices touched, against
    # the C(80, 4) 4-subsets of all indices, over a second and 300 MB
    refuse_plucker_terms_above(monkeypatch, resonance, 6)
    arr = Arrangement(80, ((2, 41, 79), (10, 33, 60)), None, "sparse")
    t0 = time.perf_counter()
    planes = decomposables_in_I2_bruteforce(arr, 3)
    assert time.perf_counter() - t0 < 2.0
    supports = [{i for row in pl.basis for i, c in enumerate(row) if c} for pl in planes]
    assert supports == [{10, 33, 60}, {2, 41, 79}]


def test_decomposable_search_refuses_a_rank_other_than_2(monkeypatch):
    # with no Plucker relation every candidate reaches the guard, and the
    # wedge of the two vectors read off one that is not decomposable is not it
    monkeypatch.setattr(resonance, "_plucker_terms", lambda n: np.zeros((6, 0), dtype=np.int64))
    with pytest.raises(ValueError, match="fails the wedge check"):
        decomposables_in_I2_bruteforce(fixture("A3"), 5)


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
    elems = [ExtElement(q, 2, dict(zip(sub.subsets, row))) for row in u.tolist()]
    want = [reference_is_decomposable(e) for e in elems]
    assert [is_decomposable(e) for e in elems] == want
    assert decomposable_mask(u, arr.n, q).tolist() == want


def test_decomposable_mask_tests_every_chunk_of_relations():
    # n = 9 has C(9, 4) = 126 relations, taken in chunks of 16, 64 and the
    # last 46, since each chunk is four times the one before; e_01 + e_23
    # fails only relation 0, (0, 1, 2, 3), e_12 + e_34 only relation 56,
    # (1, 2, 3, 4), and e_56 + e_78 only the last, (5, 6, 7, 8)
    n, q = 9, 5
    pairs = list(combinations(range(n), 2))
    quads = list(combinations(range(n), 4))
    assert 5 * _RELATION_CHUNK <= quads.index((5, 6, 7, 8)) == comb(n, 4) - 1
    assert _RELATION_CHUNK <= quads.index((1, 2, 3, 4)) < 5 * _RELATION_CHUNK
    rng = random.Random(7)
    elems = [
        ExtElement(q, 2, {(0, 1): 2, (2, 3): 3}),
        ExtElement(q, 2, {(1, 2): 1, (3, 4): 4}),
        ExtElement(q, 2, {(5, 6): 1, (7, 8): 1}),
    ]
    for _ in range(4):
        x, y = (ExtElement(q, 1, {(i,): rng.randrange(q) for i in range(n)}) for _ in "xy")
        elems.append(wedge(x, y))
    u = np.array([[e.terms.get(pr, 0) for pr in pairs] for e in elems], dtype=np.int64)
    want = [reference_is_decomposable(e) for e in elems]
    assert want[:3] == [False, False, False] and all(want[3:])
    assert [is_decomposable(e) for e in elems] == want
    assert decomposable_mask(u, n, q).tolist() == want


def factors(u):
    """Whether factor_decomposable finds a factor pair of the nonzero element u."""
    try:
        factor_decomposable(u)
    except ValueError:
        return False
    return True


def seeded_elements(rng, p, support):
    """Wedges of two vectors on support, then the same wedges with one coefficient moved."""
    elems = []
    for _ in range(20):
        x, y = (ExtElement(p, 1, {(i,): rng.choice((1, p - 1, rng.randrange(p)))
                                  for i in support}) for _ in "xy")
        w = wedge(x, y)
        if w.is_zero():
            continue
        key = rng.choice(sorted(w.terms))
        elems += [w, w + ExtElement(p, 2, {key: rng.randrange(1, p)})]
    return [e for e in elems if not e.is_zero()]


@pytest.mark.parametrize(
    "p, support",
    [(2, range(6)), (2, (100, 101, 117, 140, 163, 200)), (5, (3, 104, 105, 130, 250)),
     (2**61 - 1, range(5)), (2**61 - 1, (101, 102, 150, 171, 199))],
    ids=["F_2", "F_2-wide-indices", "F_5-wide-indices", "2^61-1", "2^61-1-wide-indices"],
)
def test_is_decomposable_against_the_factoring_and_the_mask(p, support):
    # indices of 100 and more are relabelled 0..s-1; 2^61 - 1 is above
    # MAX_KERNEL_MODULUS, where an int64 relation would wrap round
    elems = seeded_elements(random.Random(p + len(support)), p, list(support))
    got = [is_decomposable(e) for e in elems]
    assert got == [factors(e) for e in elems] == [reference_is_decomposable(e) for e in elems]
    assert True in got and False in got
    if p <= MAX_KERNEL_MODULUS:
        pairs = list(combinations(range(len(support)), 2))
        u = np.array([[e.terms.get((support[a], support[b]), 0) for a, b in pairs]
                      for e in elems], dtype=np.int64)
        assert decomposable_mask(u, len(support), p).tolist() == got


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
    want = [reference_is_decomposable(e) for e in elems]
    assert [is_decomposable(e) for e in elems] == want
    assert decomposable_mask(u, n, p).tolist() == want
    assert want[::2] == [True] * 30 and not any(want[1::2])
