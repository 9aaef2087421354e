import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from resgrass.arrangement import Arrangement, fixture, from_matrix
from resgrass.errors import DuplicateHyperplaneError, InputError
from resgrass.exterior import ExtElement, Subspace, boundary, os_ideal_part, wedge

from cases import (
    BOOLEAN,
    BOUNDARY_PRIME,
    PENCIL,
    braid,
    ceva3,
    reduce_rows,
    reference_os_ideal_part,
    relabelled_a4,
    subspace_contains,
    subspace_vector,
)

P = 31991


def rand_elem(rng, p, n, grade, nnz=4):
    subs = list(combinations(range(n), grade))
    terms = {}
    for _ in range(nnz):
        terms[rng.choice(subs)] = rng.randrange(p)
    return ExtElement(p, grade, terms)


def qrank(rows):
    """Fraction-arithmetic row rank, independent of the field module."""
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        lead = [v / mat[rk][c] for v in mat[rk]]
        mat[rk] = lead
        for i in range(rk + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        rk += 1
    return rk


def triple_boundary_row(S, n):
    """Integer coordinate vector of boundary(e_S) for a triple, built by hand."""
    pairs = list(combinations(range(n), 2))
    idx = {pr: i for i, pr in enumerate(pairs)}
    a, b, c = S
    row = [0] * len(pairs)
    row[idx[(b, c)]] = 1
    row[idx[(a, c)]] = -1
    row[idx[(a, b)]] = 1
    return row


def test_wedge_of_disjoint_monomials_sign():
    x = ExtElement(P, 2, {(4, 5): 1})
    y = ExtElement(P, 2, {(1, 2): 1})
    assert wedge(x, y) == ExtElement(P, 4, {(1, 2, 4, 5): 1})
    a = ExtElement(P, 1, {(1,): 1})
    b = ExtElement(P, 1, {(0,): 1})
    assert wedge(a, b) == ExtElement(P, 2, {(0, 1): -1})


def test_wedge_overlap_vanishes():
    x = ExtElement(P, 2, {(1, 5): 1})
    y = ExtElement(P, 2, {(1, 2): 1})
    assert wedge(x, y).is_zero()


def test_boundary_of_triple():
    d = boundary((1, 4, 5), P)
    assert d == ExtElement(P, 2, {(4, 5): 1, (1, 5): -1, (1, 4): 1})


def test_wedge_bilinear_and_alternating():
    rng = random.Random(3)
    for _ in range(40):
        ga, gb = rng.choice([(1, 1), (1, 2), (2, 2), (2, 1)])
        x = rand_elem(rng, P, 6, ga)
        y = rand_elem(rng, P, 6, gb)
        z = rand_elem(rng, P, 6, gb)
        assert wedge(x, y + z) == wedge(x, y) + wedge(x, z)
        sign = (-1) ** (ga * gb)
        assert wedge(x, y) == wedge(y, x).scale(sign)
    for _ in range(20):
        a = rand_elem(rng, P, 6, 1)
        assert wedge(a, a).is_zero()


def test_triple_boundaries_are_decomposable():
    for S in [(0, 1, 2), (1, 4, 5), (2, 3, 5)]:
        d = boundary(S, P)
        assert wedge(d, d).is_zero()


def comp_boundary(i, p=P):
    return boundary(tuple(j for j in range(6) if j != i), p)


@pytest.mark.parametrize("p", [31991, 5])
def test_braid_wedge_table(p):
    # products of the four defining relations hit the codimension-one boundaries
    r1 = boundary((1, 4, 5), p)
    r2 = boundary((0, 1, 2), p)
    r3 = boundary((0, 3, 4), p)
    r4 = boundary((2, 3, 5), p)
    assert wedge(r1, r2) == comp_boundary(3, p)
    assert wedge(r1, r3) == -comp_boundary(2, p)
    assert wedge(r1, r4) == comp_boundary(0, p)
    assert wedge(r2, r3) == comp_boundary(5, p)
    assert wedge(r2, r4) == comp_boundary(4, p)
    assert wedge(r3, r4) == -comp_boundary(1, p)


def test_braid_essential_combination_factors():
    r1 = boundary((1, 4, 5), P)
    r2 = boundary((0, 1, 2), P)
    r3 = boundary((0, 3, 4), P)
    r4 = boundary((2, 3, 5), P)
    u = r1 + r2 + r3 - r4
    a = ExtElement(P, 1, {(0,): 1, (1,): -1, (3,): -1, (5,): 1})
    b = ExtElement(P, 1, {(1,): 1, (2,): -1, (3,): 1, (4,): -1})
    assert u == wedge(a, b)


def test_i2_dims_against_fraction_rank():
    a3 = fixture("A3")
    hess = fixture("Hessian")
    for arr, expect in [(a3, 4), (hess, 27)]:
        sub = os_ideal_part(arr, 2)
        assert sub.dim() == expect
        rows = []
        for flat in arr.flats:
            for S in combinations(flat, 3):
                rows.append(triple_boundary_row(S, arr.n))
        assert qrank(rows) == expect


def test_low_grades_are_zero():
    arr = fixture("A3")
    assert os_ideal_part(arr, 0).dim() == 0
    assert os_ideal_part(arr, 1).dim() == 0


def test_a3_os_betti_numbers():
    # Poincare polynomial of the braid algebra is (1+t)(1+2t)(1+3t)
    arr = fixture("A3")
    for k, betti in [(1, 6), (2, 11), (3, 6)]:
        sub = os_ideal_part(arr, k)
        assert sub.ambient_dim() - sub.dim() == betti


def test_combinatorial_higher_grade_errors():
    with pytest.raises(InputError):
        os_ideal_part(fixture("Hessian"), 3)


@pytest.mark.parametrize("p", [2, 3, 7, P, BOUNDARY_PRIME])
def test_broken_circuit_slices_equal_the_spanning_set_construction(p):
    cases = [(braid(3), 4), (relabelled_a4(), 4), (braid(5), 3)]
    cases += [(arr, 2) for arr in (PENCIL, BOOLEAN, fixture("Hessian"))]
    # grade 2 is written off the flats of the triples at p: flats only, a
    # realization whose column 3 lies on the line of 0 and 1 mod 7 alone,
    # read at 7 and at 31991, a pencil of 5 and flats with no triple
    mat = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 7]]
    cases += [(arr, 2) for arr in (ceva3(), from_matrix(mat, p=7), from_matrix(mat, p=P),
                                   Arrangement(5, ((0, 1, 2, 3, 4),), None, "pencil of 5"),
                                   Arrangement(4, (), None, "no triple"))]
    for arr, top in cases:
        for k in range(top + 1):
            got, want = os_ideal_part(arr, k, p), reference_os_ideal_part(arr, k, p)
            got_rows, want_rows = got.rows.tolist(), want.rows.tolist()
            assert (got_rows, got.pivots) == (want_rows, want.pivots), (arr.name, k)


def test_braid_slice_dims_from_the_poincare_polynomial():
    # A_ell has Poincare polynomial (1 + t)(1 + 2t)...(1 + ell t)
    for ell in range(2, 6):
        betti = [1]
        for i in range(1, ell + 1):
            betti = [a + i * b for a, b in zip(betti + [0], [0] + betti)]
        arr = braid(ell)
        for k in range(min(ell + 1, 4) + 1):
            b_k = betti[k] if k < len(betti) else 0
            assert os_ideal_part(arr, k).dim() == comb(arr.n, k) - b_k, (ell, k)


def test_slices_refuse_moduli_the_realization_degenerates_over():
    # simple over F_31991, but columns 0 and 1 agree mod 3 and column 2 vanishes mod 5
    arr = from_matrix([[1, 1, 5, 0], [0, 3, 5, 1], [0, 0, 0, 1]])
    with pytest.raises(DuplicateHyperplaneError, match="columns 0 and 1 .* F_3"):
        os_ideal_part(arr, 2, 3)
    with pytest.raises(InputError, match="column 2 is zero over F_5"):
        os_ideal_part(arr, 2, 5)


def test_subspace_reduce_and_coset():
    arr = fixture("A3")
    sub = os_ideal_part(arr, 2)
    for flat in arr.flats:
        for S in combinations(flat, 3):
            assert subspace_contains(sub, boundary(S, P))
    assert len(sub.coset_subsets()) == 11
    rng = random.Random(4)
    for _ in range(20):
        x = rand_elem(rng, P, 6, 2)
        vec = reduce_rows(sub, [subspace_vector(sub, x)])[0].tolist()
        red = ExtElement(P, 2, dict(zip(sub.subsets, vec)))
        assert reduce_rows(sub, [subspace_vector(sub, red)]).tolist() == [subspace_vector(sub, red)]
        assert subspace_contains(sub, x - red)
        for i, s in enumerate(sub.subsets):
            if i in set(sub.pivots):
                assert s not in red.terms


def test_subspace_from_empty():
    sub = Subspace(4, 2, 7, [], [])
    assert sub.dim() == 0
    assert len(sub.coset_subsets()) == 6
