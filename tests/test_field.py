import random
from itertools import product

import numpy as np
import pytest

from resgrass import field
from resgrass.errors import InputError
from resgrass.field import (
    BATCH_ROWS,
    DEFAULT_MODULUS,
    MAX_KERNEL_MODULUS,
    batch_rank,
    check_kernel_modulus,
    inv_mod,
    is_prime,
    kernel_basis,
    leveled_rref,
    matmul_mod,
    projective_points,
    rank,
    rref,
    rref_mod,
    sparse_rref,
)
from resgrass.grobner import PolyRing

from cases import (
    BOUNDARY_PRIME,
    FIRST_REFUSED,
    reference_kernel,
    reference_rank,
    reference_rref,
)


def test_default_modulus_is_prime():
    assert DEFAULT_MODULUS == 31991
    assert is_prime(DEFAULT_MODULUS)


def test_primality_small():
    primes = {2, 3, 5, 7, 11, 13, 31991}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29, 31, 37))
    assert not is_prime(31993)  # 31993 = 13 * 23 * 107


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError, match="not prime"):
        PolyRing(2, 15)


def test_inverse_values():
    assert inv_mod(np.array([2]), 31991).tolist() == [15996]
    assert inv_mod(np.array([3, 10]), 7).tolist() == [5, 5]


def test_inverse_property():
    rng = random.Random(0)
    for p in (2, 3, 5, 7, 13, 31991, BOUNDARY_PRIME):
        x = np.array([rng.randrange(1, p) for _ in range(200)], dtype=np.int64)
        assert (x * inv_mod(x, p) % p == 1).all()


def test_kernel_of_single_row():
    # x + y + z = 0 over F_7
    ker = kernel_basis([[1, 1, 1]], 3, 7)
    assert ker == [[1, 0, 6], [0, 1, 6]]
    for v in ker:
        assert sum(v) % 7 == 0


def test_kernel_of_empty_matrix_is_identity():
    assert kernel_basis([], 4, 7) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_rref_idempotent_and_rank():
    rng = random.Random(1)
    p = 31991
    for _ in range(25):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 7)
        mat = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        red, pivots = rref(mat, ncols, p)
        assert (red, pivots) == reference_rref(mat, ncols, p)
        assert rref(red, ncols, p) == (red, pivots)
        assert rank(mat, ncols, p) == reference_rank(mat, ncols, p) == len(pivots)


def test_rank_nullity():
    rng = random.Random(2)
    p = 101
    for _ in range(25):
        nrows = rng.randrange(0, 6)
        ncols = rng.randrange(1, 7)
        mat = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        ker = kernel_basis(mat, ncols, p)
        assert rank(mat, ncols, p) + len(ker) == ncols
        for v in ker:
            assert [sum(a * b for a, b in zip(row, v)) % p for row in mat] == [0] * nrows


@pytest.mark.parametrize("p", [2, 3, 31991, BOUNDARY_PRIME])
def test_kernel_basis_matches_the_reference(p):
    # seeded matrices with no rows, of full rank, with zero rows, and with
    # entries wider than int64, which act as their residues
    rng = random.Random(p)
    entry = lambda: rng.choice((0, 1, p - 1, rng.randrange(p)))
    kinds = {"no rows": 0, "full rank": 0, "zero rows": 0, "wide": 0}
    for trial in range(60):
        ncols = rng.randrange(1, 8)
        mat = [[entry() for _ in range(ncols)] for _ in range(rng.randrange(0, 6))]
        if trial % 4 == 1:
            mat.insert(rng.randrange(len(mat) + 1), [0] * ncols)
        if trial % 4 == 2:
            mat = [[x + rng.randrange(-3, 4) * p * 2**70 for x in row] for row in mat]
        kinds["no rows"] += not mat
        kinds["full rank"] += bool(mat) and len(reference_rref(mat, ncols, p)[1]) == len(mat)
        kinds["zero rows"] += [0] * ncols in mat
        kinds["wide"] += any(abs(x) > 2**63 for row in mat for x in row)
        assert kernel_basis(mat, ncols, p) == reference_kernel(mat, ncols, p)
    assert min(kinds.values()) > 0, kinds


def test_kernel_modulus_boundary():
    assert is_prime(BOUNDARY_PRIME) and is_prime(FIRST_REFUSED)
    assert BOUNDARY_PRIME <= MAX_KERNEL_MODULUS < FIRST_REFUSED
    assert not any(is_prime(p) for p in range(BOUNDARY_PRIME + 1, FIRST_REFUSED))
    # the widest kernel value, a three-term Plucker relation, fits in int64
    assert 2 * (MAX_KERNEL_MODULUS - 1) ** 2 <= 2**63 - 1 < 2 * MAX_KERNEL_MODULUS**2
    check_kernel_modulus(BOUNDARY_PRIME)
    with pytest.raises(InputError):
        check_kernel_modulus(FIRST_REFUSED)


# 10^9 + 7 and the boundary prime take the int64 path in blocks
@pytest.mark.parametrize("p", [2, 7, DEFAULT_MODULUS, 10**9 + 7, BOUNDARY_PRIME])
def test_matmul_mod_is_exact(p):
    rng = random.Random(p)
    for rows, inner, cols in ((3, 1, 4), (5, 40, 6), (2, 0, 3)):
        a = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(cols)] for _ in range(inner)]
        want = [[sum(row[t] * b[t][j] for t in range(inner)) % p for j in range(cols)] for row in a]
        got = matmul_mod(
            np.array(a, dtype=np.int64).reshape(rows, inner),
            np.array(b, dtype=np.int64).reshape(inner, cols),
            p,
        )
        assert got.tolist() == want


# Per prime, the largest column count eliminated unreduced in int8
# (p (p - 1) + cols (p - 1)^2 <= 127) or int16 (<= 32767), then one more.
# The int8 shapes have rows enough for the entries to grow at every step.
NARROW_EDGES = {
    3: ((33, 30), (33, 31)),
    7: ((5, 2), (5, 3)),
    11: ((3, 326), (3, 327)),
    13: ((3, 226), (3, 227)),
}


# 11 | 13 and 181 | 191 straddle p (p - 1) <= 127 and <= 32767; 46337, the
# largest prime eliminated in int32, reduces at every step
@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 181, 191, 46337, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_batch_rank_matches_rank(p):
    if p in NARROW_EDGES:
        (_, fits), (_, over) = NARROW_EDGES[p]
        whole = [p * (p - 1) + c * (p - 1) ** 2 for c in (fits, over)]
        assert over == fits + 1
        assert whole[0] <= 127 < whole[1] or 127 < whole[0] <= 32767 < whole[1]
    rng = random.Random(p)
    for rows, cols in ((6, 4), (4, 7), (9, 9), (0, 3), (3, 0), *NARROW_EDGES.get(p, ())):
        mats = []
        for _ in range(40):
            # low-rank products as well as full random matrices
            r = rng.randrange(1, 4)
            left = [[rng.randrange(p) for _ in range(r)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)] for _ in range(r)]
            low = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
            full = [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(cols)] for _ in range(rows)]
            mats += [low, full]
        stack = np.array(mats, dtype=np.int64).reshape(len(mats), rows, cols)
        assert batch_rank(stack, p).tolist() == [reference_rank(m, cols, p) for m in mats]


def growth_matrix(p: int, cols: int):
    """A cols x cols matrix of rank cols - 1 on which batch_rank grows one entry by (p - 1)^2 per step.

    Row k < cols - 1 holds 1 at column k and p - 1 right of it, so each step
    takes p - 1 times the pivot row from the last row, whose entry in the
    next column then has residue p - 1 again.  Unreduced, the last entry of
    the last row loses (p - 1)^2 at every step and ends at a multiple of p.
    """
    rows = [[0] * k + [1] + [p - 1] * (cols - 1 - k) for k in range(cols - 1)]
    rows.append([(p - 1 + k) % p for k in range(cols - 1)] + [(cols - 1) % p])
    return rows


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 181, 191, 46337, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_batch_rank_under_the_largest_growth(p):
    for cols in range(2, 41):
        mat = growth_matrix(p, cols)
        assert reference_rank(mat, cols, p) == cols - 1
        assert batch_rank(np.array(mat, dtype=np.int64)[None], p).tolist() == [cols - 1]


def sparse_stack(rng, p: int, batch: int, rows: int, cols: int):
    """batch matrices with up to cols nonzero rows each, anywhere among rows, as (batch, rows, cols)."""
    stack = np.zeros((batch, rows, cols), dtype=np.int64)
    for mat in stack:
        for r in rng.sample(range(rows), min(rows, rng.randrange(1, cols + 2))):
            mat[r] = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(cols)]
    return stack


def reference_ranks(stack, p: int):
    return [reference_rank(m, stack.shape[2], p) for m in stack.tolist()]


@pytest.mark.parametrize("p", [2, 3, 7, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_batch_rank_edge_stacks(p):
    rng = random.Random(p)
    # an empty batch, and a batch of one
    assert batch_rank(np.zeros((0, 5, 3), dtype=np.int64), p).tolist() == []
    one = sparse_stack(rng, p, 1, 6, 4)
    assert batch_rank(one, p).tolist() == reference_ranks(one, p)
    # with 130 rows the pivot weights need int16, and pivots lie past row 127
    tall = sparse_stack(rng, p, 30, 130, 4)
    tall[:, 120:] = sparse_stack(rng, p, 30, 10, 4)
    tall[::2, :120] = 0
    assert tall[:, 128:].any()
    assert batch_rank(tall, p).tolist() == reference_ranks(tall, p)
    # a column that is zero in every matrix
    stack = sparse_stack(rng, p, 40, 7, 5)
    stack[:, :, 2] = 0
    assert batch_rank(stack, p).tolist() == reference_ranks(stack, p)


@pytest.mark.parametrize("p", [2, 3, 7, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_batch_rank_of_a_transposed_view(p):
    rng = random.Random(p)
    for cols, rows, batch in ((5, 11, 40), (9, 35, 3), (3, 4, 1)):
        # the layout the oracle hands over: (cols, rows, batch) in memory
        stored = np.ascontiguousarray(sparse_stack(rng, p, batch, rows, cols).transpose(2, 1, 0))
        before = stored.copy()
        view = stored.transpose(2, 1, 0)
        assert not view.flags.c_contiguous
        want = reference_ranks(np.ascontiguousarray(view), p)
        assert batch_rank(view, p).tolist() == batch_rank(view.copy(), p).tolist() == want
        assert (stored == before).all()


# the largest inner dimension whose sums float32 holds, then one more; at
# p = 31 one more gives an odd sum above 2^24, which float32 would round
@pytest.mark.parametrize("p", [7, 31])
def test_matmul_mod_at_the_float32_edge(p):
    edge = (2**24 - 1) // (p - 1) ** 2
    for inner in (edge, edge + 1):
        a = np.full((2, inner), p - 1, dtype=np.int64)
        a[0, 0] = p - 2
        a[1, ::3] = 1
        got = matmul_mod(a, a.T.copy(), p)
        want = [[sum(x * y for x, y in zip(r, s)) % p for s in a.tolist()] for r in a.tolist()]
        assert got.tolist() == want


@pytest.mark.parametrize("p", [2, 3, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_rref_mod_matches_rref(p):
    rng = random.Random(p)
    for rows, cols in ((6, 4), (4, 7), (9, 9), (0, 3), (3, 0)):
        for _ in range(20):
            # low-rank products with zero rows, so that some columns hold no pivot
            r = rng.randrange(1, 4)
            left = [[rng.choice((0, rng.randrange(p))) for _ in range(r)] for _ in range(rows)]
            right = [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(cols)] for _ in range(r)]
            mat = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
            red, pivots = rref_mod(np.array(mat, dtype=np.int64).reshape(rows, cols), p)
            assert (red.tolist(), pivots) == reference_rref(mat, cols, p)


@pytest.mark.parametrize("p", [2, 3, 7, DEFAULT_MODULUS, BOUNDARY_PRIME])
def test_leveled_rref_matches_rref_mod(p, monkeypatch):
    """The leveled solve on rows that lead in distinct columns, against rref_mod.

    Leads are any nonzero residue, the rows come shuffled, and a
    bidiagonal matrix, each row reading the next, makes one level per row.
    """
    levels = []
    real = field.through_table

    def counting(g, *args):
        levels.append(len(g))
        return real(g, *args)

    monkeypatch.setattr(field, "through_table", counting)
    rng = random.Random(p)
    for rows, cols in ((1, 1), (4, 4), (5, 9), (8, 8), (12, 20)):
        for _ in range(10):
            mat = np.zeros((rows, cols), dtype=np.int64)
            for r, lead in enumerate(sorted(rng.sample(range(cols), rows))):
                mat[r, lead] = rng.randrange(1, p)
                for c in range(lead + 1, cols):
                    mat[r, c] = rng.choice((0, 1, p - 1, rng.randrange(p)))
            mat = mat[rng.sample(range(rows), rows)]
            got, want = leveled_rref(mat, p), rref_mod(mat, p)
            assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
    chain = np.zeros((6, 8), dtype=np.int64)
    for r in range(6):
        chain[r, r], chain[r, r + 1] = rng.randrange(1, p), rng.randrange(1, p)
    levels.clear()
    got, want = leveled_rref(chain[::-1], p), rref_mod(chain, p)
    assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
    assert len(levels) == 5  # depth 5: row r reads row r + 1
    for empty in (np.zeros((0, 5), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)):
        red, pivots = leveled_rref(empty, p)
        assert red.shape == empty.shape and pivots == []


def sparse_matrix(rng, p: int, kind: str):
    """A seeded list of rows of one kind, and its column count, for sparse_rref."""
    ncols = rng.randrange(1, 12)
    entry = lambda: rng.choice((1, p - 1, rng.randrange(1, p)))
    nrows = rng.randrange(1, 14)
    if kind == "empty":
        return [], ncols
    if kind == "sparse":
        rows = [[0] * ncols for _ in range(nrows)]
        for row in rows:
            for c in rng.sample(range(ncols), min(ncols, rng.randrange(1, 4))):
                row[c] = entry()
        return rows, ncols
    if kind == "dense":
        return [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols
    if kind == "rank deficient":
        r = rng.randrange(1, 4)
        left = [[rng.choice((0, entry())) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.choice((0, entry())) for _ in range(ncols)] for _ in range(r)]
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left], ncols
    rows, ncols = sparse_matrix(rng, p, rng.choice(("sparse", "dense")))
    if kind == "duplicates":
        return [rows[rng.randrange(len(rows))] for _ in range(2 * len(rows))], ncols
    return [row if rng.random() < 0.5 else [0] * ncols for row in rows], ncols  # zero rows


@pytest.mark.parametrize("p", [2, 3, DEFAULT_MODULUS])
def test_sparse_rref_matches_the_reference(p, monkeypatch):
    """sparse_rref against cases.reference_rref: the rows, the pivots and the inputs-first rank.

    The rows go through a seeded table, so that the rref is of their
    product with it: the identity, or a random sparse table into anything
    from no columns to one more than the rows have.  Both the rounds on
    entries and the dense finish must run, and every other matrix takes
    64-byte blocks, so that the finish goes in several slices.
    """
    slices = []
    real = field.rref_mod
    monkeypatch.setattr(field, "rref_mod", lambda a, q: slices.append(len(a)) or real(a, q))
    block = field._BLOCK
    rng = random.Random(p)
    kinds = ("sparse", "dense", "rank deficient", "duplicates", "zero rows", "empty")
    rounds_only = sliced = 0
    for trial in range(240):
        monkeypatch.setattr(field, "_BLOCK", 64 if trial % 2 else block)
        rows, n = sparse_matrix(rng, p, kinds[trial % len(kinds)])
        ncol = n if trial % 3 == 0 else rng.randrange(n + 2)
        tab = [[0] * ncol for _ in range(n)]
        for k, trow in enumerate(tab):
            if trial % 3 == 0:
                trow[k] = 1
            else:
                for c in rng.sample(range(ncol), rng.randrange(0, min(ncol, 3) + 1)):
                    trow[c] = rng.randrange(1, p)
        mat = [[sum(x * t[c] for x, t in zip(row, tab)) % p for c in range(ncol)] for row in rows]
        flat = np.array(tab, dtype=np.int64).reshape(n, ncol)
        tk, tc = np.nonzero(flat)
        size = np.bincount(tk, minlength=n)
        table = (np.cumsum(size) - size, size, tc, flat[tk, tc])
        dense = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        g, c = np.nonzero(dense)
        nin = rng.randrange(len(rows) + 1)
        slices.clear()
        rg, rc, rv, pivots, kept = sparse_rref(g, c, dense[g, c], table, len(rows), ncol, p, nin)
        rounds_only += not slices
        sliced += len(slices) > 1
        want, want_pivots = reference_rref(mat, ncol, p)
        got = np.zeros((len(pivots), ncol), dtype=np.int64)
        got[rg, rc] = rv
        assert (got.tolist(), pivots.tolist()) == (want, want_pivots)
        # by row, then column, and no zero entry: _add_tails reads them in this order
        assert np.all(np.diff(rg * ncol + rc) > 0) and np.all(rv > 0)
        assert kept == len(reference_rref(mat[:nin], ncol, p)[1])
    assert sliced and rounds_only, (sliced, rounds_only)


# 2^12 - 1 and (3^8 - 1)/2 points take several batches, with carries across them
@pytest.mark.parametrize("q, m", [(2, 12), (3, 8), (5, 3), (7, 1), (3, 0)])
def test_projective_points_follow_the_product_order(q, m):
    want = [
        (0,) * lead + (1,) + tail
        for lead in range(m)
        for tail in product(range(q), repeat=m - lead - 1)
    ]
    batches = list(projective_points(q, m))
    # a batch may span several leads, so only the last one is short
    assert all(len(b) == BATCH_ROWS for b in batches[:-1])
    assert all(0 < len(b) <= BATCH_ROWS for b in batches[-1:])
    got = [tuple(row) for b in batches for row in b.tolist()]
    assert got == want
    assert len(got) == (q**m - 1) // (q - 1)
