"""Prime moduli and small dense linear algebra over F_p.

There is one elimination path: every rank and row reduction in the package
goes through the numpy kernels rref_mod and batch_rank, for moduli up to
MAX_KERNEL_MODULUS, or, where the rows lead in distinct columns, through
the leveled solve solve_levels (leveled_rref, the F4 reducer table).  The
first and last work in int64; batch_rank and matmul_mod work in the
narrowest integer type that holds every value they form, int8 for the F_3
scans and int32 at p = 31991, and take remainders through mod, which is
many times faster than numpy's %.  batch_rank eliminates a stack of
matrices with the batch axis innermost, so every step runs along the
whole batch rather than along one matrix's rows.  rref, rank and
kernel_basis take plain lists of rows of any integers and reduce them mod
p before they reach a kernel.  Everything in this package is exact:
matmul_mod computes in float32 or float64 only where every sum stays below
2^24 or 2^53.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

DEFAULT_MODULUS = 31991

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The largest modulus the numpy kernels below take: the largest p with
# 2 (p - 1)^2 <= 2^63 - 1.  The widest value any of them forms is a
# three-term Plucker relation of residues, which lies between -(p - 1)^2
# and 2 (p - 1)^2; matmul_mod and batch_rank pace their sums so that they
# never pass 2^63 - 1 either, and narrow to int8, int16 or int32 only
# where values fit.
MAX_KERNEL_MODULUS = 2**31
_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1
# float64 holds every integer below 2^53 exactly, and float32 every one below
# 2^24, whatever the summation order
_FLOAT_EXACT = 2**53
_FLOAT32_EXACT = 2**24

_BLOCK = 1 << 18  # bytes per temporary of a blocked array operation

# Points per batch of the projective scans: enough to amortize numpy calls,
# few enough that a batch's arrays stay a few megabytes.
BATCH_ROWS = 1024


def check_kernel_modulus(p: int, what: str = "modulus") -> None:
    """InputError unless p is a prime the numpy kernels compute exactly mod."""
    if not is_prime(p):
        raise InputError(f"{what} must be prime, got {p}")
    if p > MAX_KERNEL_MODULUS:
        raise InputError(
            f"{what} {p} is above {MAX_KERNEL_MODULUS}, the largest modulus the "
            "numpy kernels compute exactly"
        )


def kernel_dtype(bound: int):
    """The narrowest of int8, int16, int32 and int64 that holds every value up to bound."""
    return next((t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max), np.int64)


def mod(x, p: int):
    """x mod p, in [0, p), of an integer array.

    Formed as x - (x // p) p: numpy divides an integer array by a scalar
    many times faster than it takes the remainder.  Where the product wraps
    around its type, the difference wraps back, since it lies in [0, p).
    """
    return x - x // p * p


def matmul_mod(a, b, p: int):
    """a @ b mod p for arrays with entries in [0, p).

    Either may carry leading stack dimensions, which the product broadcasts over.
    The residues come in the narrowest type that holds p and every sum of
    products, since reducing there is cheapest.
    Products whose sums stay below 2^24 go through float32 exactly, and
    those below 2^53 through float64; otherwise the inner dimension is cut
    into blocks short enough that a block's sum of products, added to the
    running residue, fits in int64.
    """
    inner = a.shape[-1]
    sums = inner * (p - 1) ** 2
    if sums < _FLOAT_EXACT:
        ftype = np.float32 if sums < _FLOAT32_EXACT else np.float64
        # the float product is freed before the reduction's temporaries are made
        prod = (a.astype(ftype) @ b.astype(ftype)).astype(kernel_dtype(max(p, sums)))
        return mod(prod, p)
    step = (_INT64_MAX - (p - 1)) // (p - 1) ** 2
    out = mod(a[..., :step] @ b[..., :step, :], p)
    for lo in range(step, inner, step):
        out = mod(out + a[..., lo : lo + step] @ b[..., lo : lo + step, :], p)
    return out


def rref_mod(mat, p: int):
    """Reduced row echelon form over F_p of a 2-D integer array.

    Returns (reduced_rows, pivot_columns), the rows as an int64 array with
    zero rows dropped.  Column by column, the first remaining row with a
    nonzero entry becomes the pivot row and one vectorized step clears the
    column in every other row that has it.  Entries are reduced after each
    step, so no value passes (p - 1)^2 in size.  A step adds multiples of a
    row whose nonzeros lie in columns that held one from the start, so only
    those columns are visited.
    """
    a = mod(np.asarray(mat, dtype=np.int64), p)
    rows, _ = a.shape
    pivots = []
    r = 0
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if r == rows:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        pr = r + below[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = mod(a[r] * pow(int(a[r, c]), p - 2, p), p)
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit] = mod(a[hit] - a[hit, c, None] * a[r], p)
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _add_rows(out, grp, idx, coef, src, p: int):
    """out[grp[e]] += coef[e] * src[idx[e]] mod p for every entry e, grp ascending.

    Products are reduced mod p before they are summed, so nothing leaves
    int64 for p < 2^31; entries go in blocks that keep temporaries under _BLOCK.
    """
    step = max(1, _BLOCK // (8 * max(1, src.shape[1])))
    for s in range(0, len(grp), step):
        g = grp[s : s + step]
        starts = np.flatnonzero(np.diff(g, prepend=-1))
        part = src[idx[s : s + step]] * coef[s : s + step, None] % p
        at = g[starts]
        out[at] = (out[at] + np.add.reduceat(part, starts)) % p


def solve_levels(out, grp, idx, coef, p: int):
    """out[r] += coef[e] * out[idx[e]] mod p over the entries e of row r = grp[e], in place.

    grp ascends and idx[e] < grp[e]: a row's level is one more than the
    highest level it reads, and each level is one _add_rows on final rows.
    """
    depth = [0] * len(out)
    for r, j in zip(grp.tolist(), idx.tolist()):
        depth[r] = max(depth[r], depth[j] + 1)
    level = np.array(depth, np.int64)
    for lv in range(1, max(depth, default=0) + 1):
        sel = level[grp] == lv
        _add_rows(out, grp[sel], idx[sel], coef[sel], out, p)


def leveled_rref(mat, p: int):
    """rref_mod of a 2-D integer array whose rows lead in distinct columns, with no pivot search.

    Sorted by leading column, last first, and scaled to a leading 1, each
    row holds only the leads of rows before it, and solve_levels clears them.
    """
    m = np.asarray(mat, dtype=np.int64)
    if not len(m):
        return m, []
    lead = (m % p != 0).argmax(axis=1)
    row = np.full(m.shape[1], len(m))  # the row leading at each column
    row[lead] = np.arange(len(m))
    order = row[row < len(m)][::-1]
    a, lead = m[order] % p, lead[order]
    a *= inv_mod(a[np.arange(len(a)), lead], p)[:, None]
    a %= p
    # entry (r, c) reads the row leading at c, which comes before r
    row[lead] = np.arange(len(a))
    grp, col = np.nonzero(a)
    sel = row[col] < grp
    solve_levels(a, grp[sel], row[col[sel]], p - a[grp[sel], col[sel]], p)
    return a[::-1], lead[::-1].tolist()


def inv_mod(x, p: int):
    """Elementwise inverse of an array of nonzero residues, as x^(p-2); F_3 takes one reduction."""
    base = mod(x, p)
    out = None
    e = p - 2
    while e:
        if e & 1:
            out = base if out is None else mod(out * base, p)
        e >>= 1
        if e:
            base = mod(base * base, p)
    return np.ones_like(x) if out is None else out


def batch_rank(mats, p: int):
    """Ranks over F_p of a stack of matrices, shape (batch, rows, cols), entries in [0, p).

    Column by column, each matrix takes its first row with a nonzero entry
    as pivot and subtracts multiples of it from every row.  That clears the
    column and makes the pivot row itself zero mod p, so the column can be
    dropped and no matrix needs to remember which rows it has used.  Each
    step adds at most (p - 1)^2 to the size of an entry, and products of
    residues stay below p (p - 1).  When int32 or narrower holds p (p - 1)
    plus that growth over every column, the elimination runs unreduced in
    the narrowest such type: int8 for F_3 on 9 columns.  Otherwise it runs
    in kernel_dtype(p (p - 1)), int32 for p = 31991, and the whole stack is
    reduced only before it could overflow.  The stack is held as (cols,
    rows, batch), so every step works along the batch axis, the longest
    and contiguous one; a transposed view of a contiguous (cols, rows,
    batch) array in that type is taken without a copy.
    """
    batch, rows, ncols = mats.shape
    ranks = np.zeros(batch, dtype=np.int64)
    if rows == 0:
        return ranks
    growth = (p - 1) ** 2
    whole = p * (p - 1) + ncols * growth
    dtype = kernel_dtype(whole if whole <= _INT32_MAX else p * (p - 1))
    limit = np.iinfo(dtype).max
    # a[c, r] holds entry (r, c) of every matrix
    a = np.ascontiguousarray(mats.transpose(2, 1, 0), dtype=dtype)
    # row r weighs rows - r, so the heaviest nonzero entry of a matrix's
    # column, top, marks its first nonzero row, rows - top
    weights = np.arange(rows, 0, -1, dtype=kernel_dtype(rows))[:, None]
    # row r of matrix b is entry r * batch + b of the flattened (rows * batch)
    # axis, so its row rows - top is entry past - top * batch
    past = np.arange(batch) + rows * batch
    bound = p  # every entry lies in (-bound, bound)
    for _ in range(ncols):
        if bound > limit - growth:
            a = mod(a, p)
            bound = p
        col = mod(a[0], p)
        top = np.maximum.reduce((col != 0) * weights, axis=0)
        ranks += top > 0
        # a matrix without a pivot (top 0) wraps round to its own row 0: its
        # column is all zero, so its update below is zero whatever that row
        # holds.  take returns the pivot rows in C order; a fancy index
        # returns them in Fortran order, which slowed the update many times.
        flat = past - top.astype(np.intp) * batch
        pivot = mod(a.reshape(len(a), -1).take(flat, axis=1, mode="wrap"), p)
        scaled = mod(pivot[1:] * inv_mod(pivot[0], p), p)
        a = a[1:] - scaled[:, None, :] * col
        bound += growth
    return ranks


def residues(rows, ncols: int, p: int):
    """Rows of any integers as an int64 array of residues mod p, shape (len(rows), ncols).

    The reduction happens on Python ints, so entries too wide for int64 are
    taken as well.
    """
    check_kernel_modulus(p)
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64).reshape(
        len(rows), ncols
    )


def rref(rows, ncols: int, p: int):
    """rref_mod on a list of rows: (reduced rows, pivot columns), both as lists."""
    red, pivots = rref_mod(residues(rows, ncols, p), p)
    return red.tolist(), pivots


def rank(rows, ncols: int, p: int) -> int:
    """rref_mod's pivot count of one matrix given as a list of rows (batch_rank needs a batch)."""
    return len(rref_mod(residues(rows, ncols, p), p)[1])


def kernel_basis(rows, ncols: int, p: int):
    """Basis of the right kernel {v : M v = 0}, itself in reduced echelon form.

    An empty matrix (no rows) has the full space as kernel, so the identity
    basis comes back.
    """
    red, pivots = rref_mod(residues(rows, ncols, p), p)
    free = np.setdiff1d(np.arange(ncols), pivots)
    vecs = np.eye(ncols, dtype=np.int64)[free]
    vecs[:, pivots] = mod(-red[:, free].T, p)
    return rref_mod(vecs, p)[0].tolist()


def projective_points(q: int, m: int):
    """The points of P^{m-1}(F_q) with first nonzero coordinate 1, in batches.

    Each batch is an int64 array of BATCH_ROWS points, the last one of the
    rest, so the memory held at once does not grow with the number of
    points.  The points come ordered by the position of their leading 1,
    then by the coordinates after it as itertools.product lists them; a
    batch may span several leads.
    """
    total = (q**m - 1) // (q - 1)
    # first[l] is the index of the first point that leads at coordinate l
    first = np.array([(q**m - q ** (m - lead)) // (q - 1) for lead in range(m)], dtype=np.int64)
    for start in range(0, total, BATCH_ROWS):
        k = np.arange(start, min(start + BATCH_ROWS, total), dtype=np.int64)
        lead = np.searchsorted(first, k, side="right") - 1
        batch, rest = np.zeros((len(k), m), dtype=np.int64), k - first[lead]
        # the base-q digits of rest fill the coordinates after the lead
        for c in range(m - 1, 0, -1):
            rest, batch[:, c] = np.divmod(rest, q)
        batch[np.arange(len(k)), lead] = 1
        yield batch
