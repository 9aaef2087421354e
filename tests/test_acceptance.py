"""Acceptance gate: the nine headline criteria, one summary line each.

Each test prints a pass line through the acceptance_log fixture; the
conftest terminal-summary hook echoes every criterion's verdict at the end
of the run.
"""

import json
import random
import time
from itertools import combinations, combinations_with_replacement

import numpy as np

from resgrass.arrangement import fixture
from resgrass.cli import main
from resgrass.exterior import ExtElement, boundary, wedge
from resgrass.field import rref
from resgrass.grobner import PluckerRing, PolyRing, buchberger, plucker_ideal
from resgrass.hilbert import format_hp, hilbert_numerator, hilbert_polynomial, leading_ideal
from resgrass.oracle import AomotoComplex, check_prop21
from resgrass.resonance import decomposables_in_I2_bruteforce, is_decomposable, os_points

from cases import (
    evaluate,
    factor_decomposable,
    from_exp_terms,
    hilbert_function_values,
    monomial_ideal,
    pair_coords,
    permute_vars,
    rand_poly,
    reference_normal_form,
    spoly,
    subspace_from_elements,
)

P = 31991

RHO_SUBSETS = {1: (1, 4, 5), 2: (0, 1, 2), 3: (0, 3, 4), 4: (2, 3, 5)}

# products rho_i ^ rho_j as signed boundaries of 5-subsets (hat e_m omits m)
WEDGE_TABLE = [
    (1, 2, (0, 1, 2, 4, 5), 1),
    (1, 3, (0, 1, 3, 4, 5), -1),
    (1, 4, (1, 2, 3, 4, 5), 1),
    (2, 3, (0, 1, 2, 3, 4), 1),
    (2, 4, (0, 1, 2, 3, 5), 1),
    (3, 4, (0, 2, 3, 4, 5), -1),
]

ESSENTIAL_FACTORS = ((1, -1, 0, -1, 0, 1), (0, 1, -1, 1, -1, 0))


def run_cli(capsys, *argv):
    t0 = time.perf_counter()
    code = main(list(argv))
    wall = time.perf_counter() - t0
    return code, capsys.readouterr().out, wall


def test_criterion_1_braid_headline(acceptance_log, capsys):
    code, out, wall = run_cli(capsys, "r1", "--fixture", "A3", "--json")
    assert code == 0
    assert json.loads(out)["hilbert"] == "5*P_0"
    assert wall < 1.0
    acceptance_log(f"r1 A3 -> 5*P_0 in {wall:.3f} s (cap 1 s)")


def test_criterion_2_hessian_headline(acceptance_log, capsys):
    code, out, wall = run_cli(capsys, "r1", "--fixture", "Hessian", "--json")
    assert code == 0
    assert json.loads(out)["hilbert"] == "54*P_0 + 10*P_2"
    assert wall <= 120.0
    acceptance_log(f"r1 Hessian -> 54*P_0 + 10*P_2 in {wall:.1f} s (cap 120 s)")


def test_criterion_3_wedge_table(acceptance_log):
    rho = {i: boundary(s, P) for i, s in RHO_SUBSETS.items()}
    for i, j, hat, sign in WEDGE_TABLE:
        expected = boundary(hat, P).scale(sign % P)
        assert wedge(rho[i], rho[j]) == expected
    acceptance_log("all six rho_i ^ rho_j products match the signed boundaries exactly")


def test_criterion_4_essential_component(acceptance_log):
    rho = {i: boundary(s, P) for i, s in RHO_SUBSETS.items()}
    u = rho[1] + rho[2] + rho[3] + rho[4].scale(P - 1)
    assert is_decomposable(u)
    x, y = factor_decomposable(u)
    got = subspace_from_elements(6, 1, P, [x, y])
    vecs = [ExtElement(P, 1, {(i,): c % P for i, c in enumerate(v) if c % P})
            for v in ESSENTIAL_FACTORS]
    want = subspace_from_elements(6, 1, P, vecs)
    assert got.rows.tolist() == want.rows.tolist()
    acceptance_log("rho1+rho2+rho3-rho4 factors onto span{e0-e1-e3+e5, e1-e2+e3-e4}")


def _expected_planes(q):
    planes = set()
    for a, b, c in fixture("A3").flats:
        one = [0] * 6
        one[a], one[c] = 1, -1
        two = [0] * 6
        two[b], two[c] = 1, -1
        rows, _ = rref([[x % q for x in one], [x % q for x in two]], 6, q)
        planes.add(tuple(tuple(r) for r in rows))
    rows, _ = rref([[x % q for x in v] for v in ESSENTIAL_FACTORS], 6, q)
    planes.add(tuple(tuple(r) for r in rows))
    return planes


def test_criterion_5_component_census(acceptance_log):
    a3 = fixture("A3")
    for q in (5, 7):
        planes = decomposables_in_I2_bruteforce(a3, q)
        assert len(planes) == 5
        assert {pl.basis for pl in planes} == _expected_planes(q)
    acceptance_log("brute force over F_5 and F_7 finds exactly the 4 local + 1 essential planes")


def test_criterion_6_prop21_equivalence(acceptance_log):
    a3 = fixture("A3")
    walls = []
    for q in (5, 7):
        t0 = time.perf_counter()
        rep = check_prop21(a3, q)
        wall = time.perf_counter() - t0
        assert wall < 10.0
        assert rep.agree
        assert rep.n_planes == 5
        assert rep.planes_pairwise_disjoint
        assert rep.missing == () and rep.extra == ()
        assert rep.n_resonant == rep.n_plane_points == 5 * (q + 1)
        walls.append(wall)
    acceptance_log(
        f"check_prop21 agrees on A3 over F_5 ({walls[0]:.2f} s) and F_7 ({walls[1]:.2f} s), planes disjoint"
    )


def _boundary_elem(x):
    out = ExtElement(x.p, x.grade - 1, {})
    for key, c in x.terms.items():
        out = out + boundary(key, x.p).scale(c)
    return out


def test_criterion_7_aomoto_exactness(acceptance_log):
    rng = random.Random(23)
    for name in ("A3", "Hessian"):
        arr = fixture(name)
        cx = AomotoComplex(arr, P, up_to=1)
        for _ in range(100):
            while True:
                coeffs = [rng.randrange(P) for _ in range(arr.n)]
                if sum(coeffs) % P:
                    break
            pt = ExtElement(P, 1, {(i,): c for i, c in enumerate(coeffs) if c})
            assert cx.profile(pt).dims == (0, 0)
    # boundary squares to zero
    for _ in range(20):
        size = rng.randrange(3, 6)
        subset = tuple(sorted(rng.sample(range(9), size)))
        assert _boundary_elem(boundary(subset, P)).is_zero()
    # consecutive differentials compose to zero on a full braid complex
    cx = AomotoComplex(fixture("A3"), P, up_to=3)
    points = [[1] * 6, [0, 1, 0, 0, -1, 0], [rng.randrange(P) for _ in range(6)]]
    batch = cx.differentials(np.array(points, dtype=np.int64) % P)
    for b in range(len(points)):
        mats = [d[:, :, b].astype(np.int64) for d in batch]
        for low, high in zip(mats, mats[1:]):
            assert not ((low @ high) % P).any()
    acceptance_log("200 random nonresonant points exact; d^2 = 0 throughout")


def test_criterion_8_gb_soundness(acceptance_log):
    rng = random.Random(29)
    # generators and S-pairs reduce to zero against the reduced basis
    for _ in range(10):
        ring = PolyRing(3, 101)
        gens = [rand_poly(ring, rng, rng.randrange(2, 4), homogeneous=True) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens, ring)
        basis = list(gb)
        for g in gens:
            assert reference_normal_form(g, basis).is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert reference_normal_form(spoly(basis[i], basis[j]), basis).is_zero()
    # Hilbert polynomial is order independent on homogeneous ideals: permuting
    # the variables usually changes the leading ideal, never the HP
    moved = 0
    for _ in range(20):
        seeds = []
        for _ in range(3):
            deg = rng.randrange(1, 4)
            seeds.append(
                [
                    (
                        tuple(sum(1 for v in combo if v == i) for i in range(4)),
                        rng.randrange(1, 101),
                    )
                    for combo in [
                        tuple(rng.randrange(4) for _ in range(deg)) for _ in range(3)
                    ]
                ]
            )
        ring = PolyRing(4, 101)
        gens = [from_exp_terms(ring, dict(s)) for s in seeds]
        results = []
        for gs in (gens, [permute_vars(g, (2, 0, 3, 1)) for g in gens]):
            lead = leading_ideal(buchberger(gs, ring))
            results.append((lead.gens, format_hp(hilbert_polynomial(hilbert_numerator(lead), 4))))
        assert results[0][1] == results[1][1]
        moved += results[0][0] != results[1][0]
    assert moved
    # numerator expansion matches direct standard-monomial counting
    for _ in range(10):
        nvars = rng.randrange(2, 6)
        gens = []
        for _ in range(rng.randrange(1, 5)):
            exps = tuple(rng.randrange(3) for _ in range(nvars))
            if any(exps):
                gens.append(exps)
        mi = monomial_ideal(nvars, gens)
        values = hilbert_function_values(hilbert_numerator(mi), nvars, 6)
        for d in range(7):
            count = sum(
                1
                for combo in combinations_with_replacement(range(nvars), d)
                if not mi.contains(
                    [sum(1 for v in combo if v == i) for i in range(nvars)]
                )
            )
            assert values[d] == count
    acceptance_log("reduction, S-pair, order-independence and counting properties all hold")


def test_criterion_9_plucker_consistency(acceptance_log):
    for name in ("A3", "Hessian"):
        arr = fixture(name)
        ring = PluckerRing(arr.n, P)
        quads = plucker_ideal(ring)
        pts = os_points(arr)
        assert len(pts) == {"A3": 4, "Hessian": 36}[name]
        for pt in pts:
            for quad in quads:
                assert evaluate(quad, pair_coords(pt, ring)) == 0
    counts = []
    for n in range(3, 13):
        counts.append(len(plucker_ideal(PluckerRing(n, P))))
    assert counts == [len(list(combinations(range(n), 4))) for n in range(3, 13)]
    acceptance_log("all 40 OS points satisfy every quadric; counts are C(n,4) for n=3..12")
