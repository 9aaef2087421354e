import json
import random
from itertools import combinations

import pytest

from resgrass.arrangement import (
    Arrangement,
    check_simple,
    circuits,
    dependent_sets,
    fixture,
    from_matrix,
    load_arrangement,
    rank2_flats_from_realization,
)
from resgrass.errors import DuplicateHyperplaneError, InputError

from cases import (
    BOOLEAN,
    BOUNDARY_PRIME,
    MALFORMED_JSON,
    NON_STRING_NAMES,
    PENCIL,
    braid,
    reference_circuits,
    reference_rank,
    relabelled_a4,
)

A3_FLATS = ((0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5))

HESSIAN_FLATS = (
    (0, 3, 6, 9),
    (0, 4, 7, 10),
    (0, 5, 8, 11),
    (1, 3, 8, 10),
    (1, 4, 6, 11),
    (1, 5, 7, 9),
    (2, 3, 7, 11),
    (2, 4, 8, 9),
    (2, 5, 6, 10),
)


def test_a3_fixture():
    arr = fixture("A3")
    assert arr.n == 6
    assert arr.flats == A3_FLATS
    assert arr.matrix is not None
    assert len(arr.matrix) == 3


def test_hessian_fixture():
    arr = fixture("Hessian")
    assert arr.n == 12
    assert arr.matrix is None
    assert arr.flats == HESSIAN_FLATS
    # dual incidences of AG(2,3): every line lies on exactly 3 of the 9 points
    for line in range(12):
        assert sum(line in f for f in arr.flats) == 3


def test_fixture_unknown_name():
    with pytest.raises(InputError):
        fixture("B3")


def test_flats_from_realization_matches_hand_count():
    arr = fixture("A3")
    assert rank2_flats_from_realization(arr.matrix) == A3_FLATS


def test_matrix_text_format():
    text = """
    # braid arrangement
    matrix
    1 0 -1 1 0 0
    -1 1 0 0 1 0
    0 -1 1 0 0 1
    """
    arr = load_arrangement(text, name="A3")
    assert arr == fixture("A3")


def test_flats_text_format():
    text = "flats n=6\n0,1,2\n0,3,4\n1,4,5\n2,3,5\n"
    arr = load_arrangement(text)
    assert arr.n == 6
    assert arr.flats == A3_FLATS
    assert arr.matrix is None


def test_json_format():
    obj = {"n": 12, "flats": [list(f) for f in HESSIAN_FLATS], "name": "Hessian"}
    arr = load_arrangement(json.dumps(obj))
    assert arr == fixture("Hessian")


def test_json_matrix_and_flats_must_agree():
    good = {
        "n": 3,
        "matrix": [[1, 0, 1], [0, 1, 1]],
        "flats": [[0, 1, 2]],
    }
    arr = load_arrangement(json.dumps(good))
    assert arr.flats == ((0, 1, 2),)
    bad = dict(good, flats=[[0, 1, 2], [0, 1, 2]])
    with pytest.raises(InputError):
        load_arrangement(json.dumps(bad))


@pytest.mark.parametrize("text", MALFORMED_JSON)
def test_malformed_json_is_refused(text):
    with pytest.raises(InputError):
        load_arrangement(text)


@pytest.mark.parametrize("text", NON_STRING_NAMES)
def test_json_name_must_be_a_string(text):
    # also when the caller passes a name of its own, as r1 --input does
    for name in (None, "given"):
        with pytest.raises(InputError, match="'name' must be a string"):
            load_arrangement(text, name=name)
    assert load_arrangement(text.replace('"name"', '"label"')).name == "arrangement"


def test_json_takes_integers_of_any_size():
    big = 2**70 + 1
    obj = {"n": 3, "matrix": [[big, 0, 1], [0, 1, 1]]}
    arr = load_arrangement(json.dumps(obj))
    assert arr.matrix == ((big, 0, 1), (0, 1, 1))
    assert arr.flats == from_matrix([[big % 31991, 0, 1], [0, 1, 1]]).flats


def test_duplicate_column_rejected():
    with pytest.raises(DuplicateHyperplaneError):
        from_matrix([[1, 2], [2, 4]])


def test_zero_column_rejected():
    with pytest.raises(InputError):
        from_matrix([[1, 0], [0, 0]])


def test_bad_headers_and_flats():
    with pytest.raises(InputError):
        load_arrangement("")
    with pytest.raises(InputError):
        load_arrangement("lines n=3\n0,1,2\n")
    for header in ("flatsfoo n=3", "flats_v2 n=3"):  # the first token must be exactly flats
        with pytest.raises(InputError, match="unrecognized header"):
            load_arrangement(f"{header}\n0,1,2\n")
    with pytest.raises(InputError):
        load_arrangement("flats n=3\n0,1\n")  # too small
    with pytest.raises(InputError):
        load_arrangement("flats n=3\n0,1,5\n")  # out of range
    with pytest.raises(InputError):
        load_arrangement("flats n=5\n0,1,2\n0,1,3\n")  # share two hyperplanes


def test_dependent_sets_a3():
    arr = fixture("A3")
    assert dependent_sets(arr, 3) == [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5)]
    # rank 3, so every 4-subset is dependent: 4 triples + C(6,4) quadruples
    assert len(dependent_sets(arr, 4)) == 4 + 15


def test_dependent_sets_combinatorial():
    arr = fixture("Hessian")
    triples = dependent_sets(arr, 3)
    assert len(triples) == 9 * 4  # C(4,3) per flat, disjoint across flats
    with pytest.raises(InputError):
        dependent_sets(arr, 4)


def test_pencil_single_flat():
    arr = from_matrix([[1, 0, 1], [0, 1, 1]], name="pencil")
    assert arr.n == 3
    assert arr.flats == ((0, 1, 2),)


def test_describe():
    assert "combinatorial" in fixture("Hessian").describe()
    assert "realized" in fixture("A3").describe()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31991, BOUNDARY_PRIME])
def test_batched_dependencies_match_a_rank_per_subset(p):
    """dependent_sets and the flats, one batch_rank call per size, against reference_rank."""
    rng = random.Random(p)
    simple = 0
    for _ in range(50):
        ell, n = rng.randrange(3, 5), rng.randrange(5, 8)
        mat = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(ell)]
        cols = [[row[j] for row in mat] for j in range(n)]
        want = [
            sub
            for size in range(3, n + 1)
            for sub in combinations(range(n), size)
            if reference_rank([cols[i] for i in sub], ell, p) < size
        ]
        arr = Arrangement(n, (), tuple(map(tuple, mat)), "random")
        assert dependent_sets(arr, n, p) == want
        try:
            check_simple(cols, p)
        except InputError:
            with pytest.raises(InputError):
                rank2_flats_from_realization(mat, p)
            continue
        simple += 1
        flats = set()
        for i, j in combinations(range(n), 2):
            on_line = [k for k in range(n) if reference_rank([cols[i], cols[j], cols[k]], ell, p) == 2]
            if len(on_line) >= 3:
                flats.add(tuple(on_line))
        assert rank2_flats_from_realization(mat, p) == tuple(sorted(flats))
    assert simple >= 5


@pytest.mark.parametrize("p", [2, 3, 7, 31991, BOUNDARY_PRIME])
def test_circuit_pass_matches_the_superset_scan(p):
    """One circuit pass per size, against the superset scan over dependent_sets.

    The sizes run past rank + 1, where every set is dependent and none is a
    circuit, and the rank comes back with the circuits.
    """
    cases = [(braid(3), 6), (relabelled_a4(), 6), (braid(5), 5), (BOOLEAN, 4)]
    cases += [(PENCIL, 3), (fixture("Hessian"), 3)]
    for arr, top in cases:
        ell = None if arr.matrix is None else reference_rank(arr.matrix, arr.n, p)
        for size in range(top + 1):
            assert circuits(arr, size, p) == (reference_circuits(arr, size, p), ell), (arr.name, size)
    # the flats know only the triples
    for arr in (PENCIL, fixture("Hessian")):
        with pytest.raises(InputError, match="need a realization matrix"):
            circuits(arr, 4, p)


def test_circuits_rank_again_at_a_prime_other_than_the_load():
    """The flats give the triples only at the prime they were read over.

    Column 3 is (1, 1, 5): with e_0 and e_1 it is dependent mod 5 and not
    mod 31991, so the loaded flats are right at one prime and wrong at the
    other, and each prime gets the batch-rank answer.
    """
    mat = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 5]]
    want = {p: (reference_circuits(Arrangement(4, (), tuple(map(tuple, mat))), 4, p), 3)
            for p in (5, 31991)}
    assert want[5][0] == [(0, 1, 3)] and want[31991][0] == [(0, 1, 2, 3)]
    for load in (5, 31991):
        arr = from_matrix(mat, p=load)
        assert arr.p == load
        assert arr.flats == (((0, 1, 3),) if load == 5 else ())
        for p in (5, 31991):
            assert circuits(arr, 4, p) == want[p], (load, p)
    # the prime is not part of the arrangement's identity
    assert from_matrix(mat, p=31991) == Arrangement(4, (), tuple(map(tuple, mat)))
    assert load_arrangement("flats n=3\n0,1,2\n").p is None
