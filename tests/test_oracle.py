import json
import random
import time
from itertools import product

import numpy as np
import pytest

from resgrass import cli, exterior, oracle
from resgrass.arrangement import Arrangement, fixture, from_matrix
from resgrass.errors import BudgetError, InputError
from resgrass.exterior import ExtElement, os_ideal_part
from resgrass.field import BATCH_ROWS, batch_rank, rref_mod
from resgrass.grobner import PolyRing, normal_form
from resgrass.oracle import (
    AomotoComplex,
    CohomologyProfile,
    KResonance,
    aomoto_profile,
    check_prop21,
    enumerate_r1,
    is_resonant_1,
    is_resonant_k,
)

from cases import (
    BOOLEAN,
    BOUNDARY_PRIME,
    FIRST_REFUSED,
    PENCIL,
    braid,
    braid_rows,
    reference_differentials,
)

P = 31991


def pt(coeffs, p=P):
    return ExtElement(p, 1, {(i,): c % p for i, c in enumerate(coeffs) if c % p})


def random_nonresonant_point(rng, n, p=P):
    # sum of coordinates nonzero, the generic-exactness hypothesis
    while True:
        coeffs = [rng.randrange(p) for _ in range(n)]
        if sum(coeffs) % p:
            return pt(coeffs, p)


def test_profile_generic_point_exact():
    a3 = fixture("A3")
    prof = aomoto_profile(a3, pt([1] * 6), up_to=3)
    assert prof.dims == (0, 0, 0, 0)
    # OS Betti numbers of the braid arrangement: (1+t)(1+2t)(1+3t)
    assert prof.ambient_dims == (1, 6, 11, 6)


def test_profile_resonant_points():
    a3 = fixture("A3")
    local = pt([0, 1, 0, 0, -1, 0])  # on the component of the flat (1, 4, 5)
    assert aomoto_profile(a3, local, up_to=1).dims == (0, 1)
    essential = pt([1, -1, 0, -1, 0, 1])
    assert aomoto_profile(a3, essential, up_to=1).dims == (0, 1)


def test_profile_randomized_exactness():
    rng = random.Random(17)
    a3 = fixture("A3")
    cx = AomotoComplex(a3, P, up_to=2)
    for _ in range(100):
        assert cx.profile(random_nonresonant_point(rng, 6)).dims == (0, 0, 0)
    hess = fixture("Hessian")
    cx = AomotoComplex(hess, P, up_to=1)
    for _ in range(100):
        assert cx.profile(random_nonresonant_point(rng, 12)).dims == (0, 0)


def pointwise_differentials(cx, points):
    """Each point's d_0..d_up_to, from one differentials call on the points as a batch."""
    batch = np.array(points, dtype=np.int64) % cx.p
    mats = cx.differentials(batch)
    assert [d.shape for d in mats] == [
        (cx.ambient_dims[k], len(cx.parts[k + 1].coset_columns()), len(batch))
        for k in range(cx.up_to + 1)
    ]
    return [[d[:, :, b].astype(np.int64) for d in mats] for b in range(len(batch))]


def test_differentials_compose_to_zero():
    rng = random.Random(18)
    a3 = fixture("A3")
    cx = AomotoComplex(a3, P, up_to=3)
    points = ([1] * 6, [0, 1, 0, 0, -1, 0], [rng.randrange(P) for _ in range(6)])
    for coeffs, mats in zip(points, pointwise_differentials(cx, points)):
        want = reference_differentials(cx, pt(coeffs))
        assert all((g == w).all() for g, w in zip(mats, want))
        for low, high in zip(mats, mats[1:]):
            assert not ((low @ high) % P).any()


def test_euler_identity():
    rng = random.Random(19)
    a3 = fixture("A3")
    for up_to in (1, 2, 3):
        cx = AomotoComplex(a3, P, up_to=up_to)
        for coeffs in ([1] * 6, [0, 1, 0, 0, -1, 0], [rng.randrange(P) for _ in range(6)]):
            prof = cx.profile(pt(coeffs))
            ambient = sum((-1) ** k * d for k, d in enumerate(prof.ambient_dims))
            assert prof.euler() == ambient - (-1) ** up_to * prof.last_rank


def test_profile_input_errors():
    a3 = fixture("A3")
    with pytest.raises(InputError):
        aomoto_profile(a3, ExtElement(P, 1, {}), up_to=1)
    with pytest.raises(InputError):
        aomoto_profile(a3, ExtElement(P, 2, {(0, 1): 1}), up_to=1)
    with pytest.raises(InputError):
        aomoto_profile(a3, pt([1] * 6), up_to=4)  # rank is 3
    flats_only = Arrangement(6, a3.flats, None, "A3-flats")
    assert aomoto_profile(flats_only, pt([1] * 6), up_to=1).dims == (0, 0)
    with pytest.raises(InputError):
        aomoto_profile(flats_only, pt([1] * 6), up_to=2)
    with pytest.raises(InputError):
        aomoto_profile(fixture("Hessian"), pt([1] * 12), up_to=2)
    # numpy would read e_{-1} as e_5 and fail on e_6 with a bare IndexError
    for terms in ({(-1,): 1, (4,): P - 1}, {(6,): 1}):
        with pytest.raises(InputError, match=r"outside 0\.\.5"):
            aomoto_profile(a3, ExtElement(P, 1, terms))


def test_is_resonant_1_examples():
    a3 = fixture("A3")
    assert not is_resonant_1(a3, pt([1, 0, 0, 0, 0, 0]))
    assert is_resonant_1(a3, pt([0, 1, 0, 0, -1, 0]))
    assert is_resonant_1(a3, pt([0, 1, -1, 1, -1, 0]))
    with pytest.raises(InputError):
        is_resonant_1(a3, ExtElement(P, 1, {}))


def test_enumerate_r1_braid_f5():
    a3 = fixture("A3")
    points = enumerate_r1(a3, 5)
    assert len(points) == 30
    assert points == sorted(points)
    assert all(next(c for c in p if c) == 1 for p in points)
    assert (0, 1, 0, 0, 4, 0) in points  # e1 - e4 normalized


def test_enumerate_r1_matches_rank_and_h1_exhaustively():
    a3 = fixture("A3")
    resonant = set(enumerate_r1(a3, 5))
    cx = AomotoComplex(a3, 5, up_to=1)
    seen = set()
    for lead in range(6):
        for tail in product(range(5), repeat=5 - lead):
            coords = (0,) * lead + (1,) + tail
            x = pt(coords, 5)
            by_h1 = cx.profile(x).dims[1] != 0
            assert by_h1 == (coords in resonant)
            if len(seen) % 50 == 0:
                # the one-point call builds its own complex
                assert is_resonant_1(a3, x) == by_h1
            seen.add(coords)
    assert len(seen) == (5**6 - 1) // 4


def test_enumerate_r1_pencil_and_boolean():
    pencil = Arrangement(3, ((0, 1, 2),), None, "pencil")
    assert enumerate_r1(pencil, 3) == [(0, 1, 2), (1, 0, 2), (1, 1, 1), (1, 2, 0)]
    boolean = from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="boolean", p=3)
    assert enumerate_r1(boolean, 3) == []


def test_enumerate_r1_validation():
    a3 = fixture("A3")
    with pytest.raises(InputError):
        enumerate_r1(a3, 4)
    with pytest.raises(BudgetError):
        enumerate_r1(a3, 5, budget=100)


def test_check_prop21_braid():
    a3 = fixture("A3")
    for q in (5, 7):
        rep = check_prop21(a3, q)
        assert rep.agree
        assert rep.n_planes == 5
        assert rep.n_resonant == 5 * (q + 1)
        assert rep.n_plane_points == rep.n_resonant
        assert rep.planes_pairwise_disjoint
        assert rep.missing == () and rep.extra == ()


def test_check_prop21_pencil_and_report_json():
    pencil = Arrangement(3, ((0, 1, 2),), None, "pencil")
    rep = check_prop21(pencil, 3)
    assert rep.agree and rep.n_planes == 1 and rep.n_resonant == 4
    obj = json.loads(rep.to_json())
    assert obj["agree"] is True
    assert obj["q"] == 3
    assert obj["missing"] == [] and obj["extra"] == []
    # four lines through a point over F_3: the planes meet, so the union of
    # their points is smaller than the sum of the plane sizes
    four = check_prop21(from_matrix([[1, 0, 1, 1], [0, 1, 1, 2]]), 3)
    assert four.agree and four.n_planes == 13
    assert four.n_plane_points == four.n_resonant == 13
    assert four.planes_pairwise_disjoint is False


def test_check_prop21_builds_i2_once(monkeypatch):
    passes, built = [], []
    real_pass, real_slice = exterior.circuits, exterior.ideal_slice

    def counting_pass(arr, max_size, p):
        passes.append(max_size)
        return real_pass(arr, max_size, p)

    def counting_slice(n, k, p, circs):
        built.append(k)
        return real_slice(n, k, p, circs)

    # os_ideal_part makes its pass and slice in exterior, the complex in oracle
    for module in (oracle, exterior):
        monkeypatch.setattr(module, "circuits", counting_pass)
        monkeypatch.setattr(module, "ideal_slice", counting_slice)
    for call in (1, 2):
        assert check_prop21(fixture("A3"), 5).agree
        # one complex: one pass up to size 3 and the slices I_1 and I_2, whose
        # I_2 the decomposable search takes as well
        assert passes == [3] * call
        assert built == [1, 2] * call


def test_oracle_refuses_a_field_the_realization_degenerates_over(capsys, tmp_path):
    # the oracle reads its input over F_q: columns 0 and 1 are proportional
    # mod 3 but not mod 5
    path = tmp_path / "degenerate.txt"
    path.write_text("matrix\n1 1 0 1\n0 3 1 1\n0 0 1 2\n")
    assert cli.main(["oracle", "--input", str(path), "--q", "5", "--json"]) == 0
    capsys.readouterr()
    assert cli.main(["oracle", "--input", str(path), "--q", "3", "--json"]) == 2
    assert "columns 0 and 1 are proportional over F_3" in capsys.readouterr().err
    # columns 0 and 2 agree mod 31991 but not mod 5
    path.write_text("matrix\n1 0 1 1\n0 1 31991 2\n")
    assert cli.main(["oracle", "--input", str(path), "--q", "5"]) == 0
    assert "agree: yes" in capsys.readouterr().out
    # the third row vanishes mod 5, so columns 0, 1 and 2 span a flat over F_5
    path.write_text("matrix\n1 0 1\n0 1 1\n0 0 5\n")
    assert cli.main(["oracle", "--input", str(path), "--q", "5"]) == 0
    assert "n=3, 1 flats" in capsys.readouterr().out
    # the oracle has no field but F_q, so it takes no --p
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--input", str(path), "--q", "5", "--p", "7"])
    assert exc.value.code == 2


def test_check_prop21_refuses_a_budget_before_either_scan(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(oracle, "projective_points", no_scan)
    monkeypatch.setattr(oracle, "_decomposable_planes", no_scan)
    a3 = fixture("A3")
    # the decomposable side is checked first: 400 candidates in P(I_2) over F_7
    with pytest.raises(BudgetError, match="decomposable search") as exc:
        check_prop21(a3, 7, budget=399)
    assert exc.value.candidates == 400
    with pytest.raises(BudgetError, match="resonant point enumeration") as exc:
        check_prop21(a3, 7, budget=2000)
    assert exc.value.candidates == 2801
    assert cli.main(["oracle", "--fixture", "A3", "--q", "7", "--budget", "2000"]) == 3
    assert capsys.readouterr().err == (
        "error: resonant point enumeration needs 2801 candidates, over the budget of 2000"
        " (pass a larger budget to override)\n"
    )


def test_point_budget_counts_the_sum_zero_hyperplane(capsys):
    # A3 over F_5 scans the (5^5 - 1)/4 = 781 points of sum a_i = 0
    assert cli.main(["oracle", "--fixture", "A3", "--q", "5", "--budget", "781"]) == 0
    assert "agree: yes" in capsys.readouterr().out
    assert cli.main(["oracle", "--fixture", "A3", "--q", "5", "--budget", "780"]) == 3
    assert "resonant point enumeration needs 781 candidates" in capsys.readouterr().err


def test_scan_refuses_an_i2_the_boundary_map_does_not_kill(monkeypatch):
    # e_0 ^ e_1 has boundary e_1 - e_0, so with it in I_2 a point off the
    # hyperplane sum a_i = 0 could be resonant, and no scan may run
    real_slice = oracle.ideal_slice

    def forged_slice(n, k, p, circs):
        sub = real_slice(n, k, p, circs)
        if k == 2:
            extra = np.zeros((1, len(sub.subsets)), dtype=np.int64)
            extra[0, sub.index[(0, 1)]] = 1
            sub.rows, sub.pivots = rref_mod(np.concatenate([sub.rows, extra]), p)
        return sub

    def no_scan(*args):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(oracle, "ideal_slice", forged_slice)
    monkeypatch.setattr(oracle, "projective_points", no_scan)
    monkeypatch.setattr(oracle, "_decomposable_planes", no_scan)
    a3 = fixture("A3")
    assert AomotoComplex(a3, 5).parts[2].dim() == 5  # the 4 rows of A3's I_2 and e_0 ^ e_1
    with pytest.raises(ValueError, match="boundary check"):
        enumerate_r1(a3, 5)
    with pytest.raises(ValueError, match="boundary check"):
        check_prop21(a3, 5)


def test_check_prop21_hessian_char2_budget():
    with pytest.raises(BudgetError):
        check_prop21(fixture("Hessian"), 2)


def test_check_prop21_hessian_char2_with_a_raised_budget():
    # P(I_2) has 2^27 - 1 points, but the decomposable search tests about
    # 15,000 candidates; the 124 planes are 54 isolated ones and the 7 lines
    # of P^2(F_2) in each of the 10 three-dimensional components
    t0 = time.perf_counter()
    rep = check_prop21(fixture("Hessian"), 2, budget=2 * 10**8)
    assert time.perf_counter() - t0 < 10.0
    assert rep.agree and not rep.missing and not rep.extra
    assert (rep.n_planes, rep.n_plane_points, rep.n_resonant) == (124, 232, 232)
    assert not rep.planes_pairwise_disjoint


def test_is_resonant_k_braid():
    a3 = fixture("A3")
    gen = pt([1] * 6)
    res1 = is_resonant_k(a3, gen, 1)
    assert not res1 and res1.h == 0
    local = is_resonant_k(a3, pt([0, 1, 0, 0, -1, 0]), 1)
    assert local and local.h == 1
    res2 = is_resonant_k(a3, gen, 2)
    assert not res2 and res2.h == 0 and res2.profile.dims == (0, 0, 0)
    with pytest.raises(InputError):
        is_resonant_k(a3, gen, 0)


def test_profile_json():
    prof = aomoto_profile(fixture("A3"), pt([1] * 6), up_to=1)
    obj = json.loads(prof.to_json())
    assert obj == {"dims": [0, 0], "ambient_dims": [1, 6], "last_rank": 5}


A4 = braid(4)


_POINTWISE = {}


def pointwise_scan(arr, q):
    """The points of P^{n-1}(F_q) that one profile each finds resonant, kept per (name, q)."""
    key = (arr.name, q)
    if key not in _POINTWISE:
        cx = AomotoComplex(arr, q, up_to=1)
        _POINTWISE[key] = [
            coords
            for lead in range(arr.n)
            for tail in product(range(q), repeat=arr.n - lead - 1)
            for coords in [(0,) * lead + (1,) + tail]
            if cx.profile(pt(coords, q)).dims[1] > 0
        ]
    return _POINTWISE[key]


# the number of resonant points: q + 1 on each plane of R^1, which meet only
# at 0; the Hessian over F_2 has 54 planes and 10 three-dimensional
# components, 54 * 3 + 10 * 7 points
@pytest.mark.parametrize(
    "arr, q, count",
    [(fixture("A3"), 2, 15), (fixture("A3"), 5, 30), (fixture("A3"), 7, 40), (A4, 2, 45),
     (PENCIL, 2, 3), (PENCIL, 3, 4), (BOOLEAN, 2, 0), (BOOLEAN, 3, 0),
     (fixture("Hessian"), 2, 232)],
    ids=["A3/F_2", "A3/F_5", "A3/F_7", "A4/F_2", "pencil/F_2", "pencil/F_3",
         "boolean/F_2", "boolean/F_3", "Hessian/F_2"],
)
def test_enumerate_r1_equals_pointwise_scan(arr, q, count):
    want = pointwise_scan(arr, q)
    assert len(want) == count
    assert enumerate_r1(arr, q) == sorted(want)


@pytest.mark.parametrize(
    "arr, q",
    [(fixture("A3"), 2), (fixture("A3"), 5), (fixture("A3"), 7), (A4, 2), (PENCIL, 2),
     (PENCIL, 3), (BOOLEAN, 2), (BOOLEAN, 3), (fixture("Hessian"), 2)],
    ids=["A3/F_2", "A3/F_5", "A3/F_7", "A4/F_2", "pencil/F_2", "pencil/F_3",
         "boolean/F_2", "boolean/F_3", "Hessian/F_2"],
)
def test_pointwise_resonant_points_sum_to_zero(arr, q):
    # the premise of the hyperplane scan, read off the full-space reference
    assert all(sum(coords) % q == 0 for coords in pointwise_scan(arr, q))


@pytest.mark.parametrize(
    "arr, q",
    [(fixture("A3"), 2), (fixture("A3"), 3), (fixture("A3"), 5), (fixture("A3"), 7),
     (A4, 2), (A4, 3), (PENCIL, 3), (BOOLEAN, 3)],
    ids=["A3/F_2", "A3/F_3", "A3/F_5", "A3/F_7", "A4/F_2", "A4/F_3", "pencil/F_3",
         "boolean/F_3"],
)
def test_enumerate_r1_rechecks_every_uncertified_point(arr, q, monkeypatch):
    # with a zero compression map no point is certified, so each one must
    # be ranked again on the full d_1, all n rows, in batches of at most
    # BATCH_ROWS; the pencil and the boolean arrangement have dim A^2 <= n + 3,
    # so their first ranks are the exact ones, on every point
    shapes = []

    def spy(mats, p):
        shapes.append(mats.shape)
        return batch_rank(mats, p)

    monkeypatch.setattr(oracle, "_compressor", lambda rows, cols, q: np.zeros((rows, cols), int))
    monkeypatch.setattr(oracle, "batch_rank", spy)
    assert enumerate_r1(arr, q) == sorted(pointwise_scan(arr, q))
    n, dim2 = arr.n, AomotoComplex(arr, q).wedges[1].shape[1]  # dim2 = dim A^2
    rechecks = [b for b, rows, cols in shapes if (rows, cols) == (dim2, n)]
    assert max(rechecks, default=0) <= BATCH_ROWS
    # every point of the hyperplane sum a_i = 0, (q^(n-1) - 1)/(q - 1) of them
    assert sum(rechecks) == (q ** (n - 1) - 1) // (q - 1)


def test_check_prop21_a4_f3_within_cap():
    t0 = time.perf_counter()
    rep = check_prop21(A4, 3)
    elapsed = time.perf_counter() - t0
    assert rep.agree and rep.planes_pairwise_disjoint
    # C(5,3) local plus C(5,4) non-local components, q + 1 points each
    assert rep.n_planes == 15
    assert rep.n_resonant == rep.n_plane_points == 60
    assert elapsed < 5.0, f"A4 over F_3 took {elapsed:.2f} s"


def test_check_point_builds_each_ideal_slice_once(capsys, monkeypatch, tmp_path):
    passes, built = [], []
    real_pass, real_slice = oracle.circuits, oracle.ideal_slice

    def counting_pass(arr, max_size, p):
        passes.append(max_size)
        return real_pass(arr, max_size, p)

    def counting_slice(n, k, p, circs):
        built.append(k)
        return real_slice(n, k, p, circs)

    monkeypatch.setattr(oracle, "circuits", counting_pass)
    monkeypatch.setattr(oracle, "ideal_slice", counting_slice)
    path = tmp_path / "A4.txt"
    path.write_text("matrix\n" + "".join(" ".join(map(str, r)) + "\n" for r in braid_rows(4)))
    argv = ["check-point", "--input", str(path), "--k", "3", "--json", "0,0,0,0,0,1,2,0,0,-3"]
    outs = []
    for call in (1, 2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
        # one circuit pass up to size k + 2 and one slice per grade 1..k+1, and
        # the second call on the same file repeats them: nothing is cached
        assert passes == [5] * call
        assert built == [1, 2, 3, 4] * call
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["k_check"]["k"] == 3


def test_shared_complex_gives_the_same_verdicts():
    a3 = fixture("A3")
    cx = AomotoComplex(a3, P, up_to=2)
    for coeffs in ([1] * 6, [0, 1, 0, 0, -1, 0], [1, -1, 0, -1, 0, 1]):
        x = pt(coeffs)
        prof = cx.profile(x)
        assert prof == aomoto_profile(a3, x, up_to=2)
        assert is_resonant_1(a3, x) == (prof.dims[1] > 0)
        assert is_resonant_k(a3, x, 2) == KResonance(2, prof.dims[2], prof.dims[2] != 0, prof)
    with pytest.raises(InputError, match="modulus"):
        cx.profile(pt([1] * 6, 5))  # another field


# F_3 and F_7 are the fields of the benchmark's scans, whose products run in
# int8 and int16; F_2 is the field of `oracle --q 2`, in int8 as well
@pytest.mark.parametrize("p", [P, 2, 3, 5, 7])
@pytest.mark.parametrize(
    "arr, up_to",
    [(fixture("A3"), 3), (braid(4), 3), (fixture("Hessian"), 1), (PENCIL, 1), (BOOLEAN, 3)],
    ids=["A3", "A4", "Hessian", "pencil", "boolean"],
)
def test_differentials_equal_the_pointwise_wedges(arr, up_to, p):
    rng = random.Random(20)
    cx = AomotoComplex(arr, p, up_to=up_to)
    points = [[1] * arr.n, [0, 1] + [0] * (arr.n - 2), [1, p - 1] + [0] * (arr.n - 2)]
    points += [[rng.randrange(p) for _ in range(arr.n)] for _ in range(4)]
    points = [coeffs for coeffs in points if any(coeffs)]
    for coeffs, got in zip(points, pointwise_differentials(cx, points)):
        want = reference_differentials(cx, pt(coeffs, p))
        assert [m.shape for m in got] == [m.shape for m in want]
        assert all((g == w).all() for g, w in zip(got, want))


def test_profile_refuses_broken_invariants():
    # the genuine A3 profile at a local point
    assert CohomologyProfile((0, 1), (1, 6), 4) == aomoto_profile(
        fixture("A3"), pt([0, 1, 0, 0, -1, 0]), up_to=1
    )
    # Euler holds but h^1 < 0: what an overflowing rank used to report
    with pytest.raises(ValueError, match="negative"):
        CohomologyProfile((0, -1), (1, 6), 6)
    with pytest.raises(ValueError, match="Euler"):
        CohomologyProfile((0, 1), (1, 6), 5)


def test_check_point_at_the_boundary_prime(capsys):
    # over F_31991 the point is generic: h^0 = h^1 = h^2 = 0
    for p in (P, BOUNDARY_PRIME):
        code = cli.main(["check-point", "--fixture", "A3", "--k", "2", "--json",
                         "--p", str(p), "1,2,3,5,7,11"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["profile"] == {"dims": [0, 0, 0], "ambient_dims": [1, 6, 11], "last_rank": 6}
        assert obj["resonant_1"] is False and obj["k_check"]["h"] == 0


@pytest.mark.parametrize("p", [4, 9, 15])
def test_composite_moduli_are_refused(p):
    # the kernels used to take them: a slice of dimension 4 at p = 4, a
    # negative cohomology dimension, flats from a realization mod 15
    a3 = fixture("A3")
    for call in (
        lambda: os_ideal_part(a3, 2, p),
        lambda: aomoto_profile(a3, pt([1] * 6, p)),
        lambda: from_matrix(a3.matrix, p=p),
    ):
        with pytest.raises(InputError, match=f"^modulus must be prime, got {p}$"):
            call()
    with pytest.raises(InputError, match=f"^enumeration field size must be prime, got {p}$"):
        check_prop21(a3, p)


def test_moduli_above_the_kernel_bound_are_refused(capsys, tmp_path):
    for argv in (
        ["check-point", "--fixture", "A3", "--k", "2", "--p", str(FIRST_REFUSED), "1,2,3,5,7,11"],
        ["check-point", "--fixture", "A3", "--p", str(2**61 - 1), "1,2,3,5,7,11"],
        ["oracle", "--fixture", "A3", "--q", str(FIRST_REFUSED)],
    ):
        assert cli.main(argv) == 2
        assert "largest modulus" in capsys.readouterr().err
    # the oracle reads its input over F_q, and names q before it reads the file
    path = tmp_path / "a3.txt"
    rows = fixture("A3").matrix
    path.write_text("matrix\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    assert cli.main(["oracle", "--input", str(path), "--q", str(FIRST_REFUSED)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: enumeration field size {FIRST_REFUSED} is above")
    a3 = fixture("A3")
    big = PolyRing(2, FIRST_REFUSED)
    for call in (
        lambda: os_ideal_part(a3, 2, FIRST_REFUSED),
        lambda: AomotoComplex(a3, FIRST_REFUSED),
        lambda: enumerate_r1(a3, FIRST_REFUSED, budget=10**40),
        lambda: check_prop21(a3, FIRST_REFUSED, budget=10**40),
        lambda: normal_form(big.var(0), [big.var(1)]),
    ):
        with pytest.raises(InputError):
            call()
