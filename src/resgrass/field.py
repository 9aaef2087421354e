"""Prime moduli and linear algebra over F_p, dense and on sparse entries.

Dense rank and row reduction goes through the numpy kernels rref_mod (the
oracle's ranks, rref, rank and kernel_basis) and batch_rank, for moduli up
to MAX_KERNEL_MODULUS.  Rows held as entries (row, column, value) go
through a table of normal forms in through_table; rows led by a 1 in
distinct columns are reduced among themselves by leveled, the leveled
solve on entries, which leveled_rref applies to a dense array.  The F4
engine's Macaulay rows stay entries: sparse_rref eliminates them in rounds
of pivots, which leveled reduces, and rows whose entries would take no
less room than a dense array finish through rref_mod in slices of _BLOCK
bytes.  rref_mod works in int64; batch_rank and matmul_mod work in the
narrowest integer type that holds every value they form, int8 for the F_3
scans and int32 at p = 31991, and take remainders through mod, which is
many times faster than numpy's % on large arrays.  batch_rank eliminates a
stack of matrices with the batch axis innermost, so every step runs along
the whole batch rather than along one matrix's rows.  rref, rank and
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


def _runs(x):
    """The first index and the length of each run of equal values in a 1-D array."""
    heads = np.flatnonzero(np.concatenate(([len(x) > 0], x[1:] != x[:-1])))
    return heads, np.concatenate((heads[1:], [len(x)])) - heads


def _products(g, c, v, table, ncol: int, p: int):
    """through_table's products, unsummed, one slice of rows at a time.

    Each product comes as its row * ncol + column and its value.  A slice
    ends at a row's end and holds about _BLOCK // 8 products.
    """
    start, size, tcol, tcoef = table
    k = size[c]
    ends = np.cumsum(k)
    heads = _runs(g)[0]
    cuts = heads[_runs((ends - k)[heads] // (_BLOCK // 8))[0]]
    for a, b in zip(cuts.tolist(), [*cuts[1:].tolist(), len(g)]):
        n = k[a:b]
        e = np.repeat(np.arange(a, b), n)
        at = np.arange(len(e)) + np.repeat(start[c[a:b]] - ends[a:b] + ends[a] - k[a] + n, n)
        yield g[e] * ncol + tcol[at], v[e] * tcoef[at] % p


def _joined(parts):
    """Entry triples of disjoint rows as one, each row's entries still together."""
    return tuple(np.concatenate(x) for x in zip(*parts))


def through_table(g, c, v, table, ncol: int, p: int):
    """Sparse rows with each column k replaced by row k of a table, as entries (row, column, value).

    The rows are entries g, c, v, each row's together.  Row k of the table
    is col/coef[start[k] : start[k] + size[k]] for table = (start, size,
    col, coef), in columns [0, ncol).  Products are summed per row and
    column mod p and zeros dropped, so each row's entries come by column
    and a row left with none drops out.
    """
    out = [(g[:0], c[:0], v[:0])]
    for key, val in _products(g, c, v, table, ncol, p):
        order = np.argsort(key)
        key, val = key[order], val[order]
        first = _runs(key)[0]
        key, val = key[first], np.add.reduceat(val, first) % p
        out.append((*np.divmod(key[val != 0], ncol), val[val != 0]))
    return _joined(out)


def pivot_table(g, c, v, ncol: int, p: int):
    """through_table's map for rows led by a 1 in distinct columns.

    Column k goes to minus the tail of the row leading at k, or to itself.
    """
    heads, count = _runs(g)
    mine = np.repeat(c[heads], count)  # each entry's lead
    keep = np.ones(ncol, bool)
    keep[c[heads]] = False
    keep, tail = np.flatnonzero(keep), c != mine
    src = np.concatenate([keep, mine[tail]])
    order = np.argsort(src, kind="stable")
    size = np.bincount(src, minlength=ncol)
    col = np.concatenate([keep, c[tail]])[order]
    val = np.concatenate([np.ones(len(keep), np.int64), p - v[tail]])[order]
    return np.cumsum(size) - size, size, col, val


def leveled(g, c, v, ncol: int, p: int):
    """Sparse rows led by a 1 in distinct columns, reduced among themselves.

    A row reads the rows leading at the columns of its tail, and its level
    is one more than the highest level it reads.  Each level goes through
    the rows it reads, which are final, in one through_table.
    """
    heads, count = _runs(g)
    rows = g[heads]
    r = np.repeat(np.arange(len(heads)), count)
    owner = np.full(ncol, -1)
    owner[c[heads]] = np.arange(len(heads))
    reads = np.flatnonzero((owner[c] >= 0) & (owner[c] != r))
    # a row reads only past its lead, so taking the columns read from the
    # last, a row's level is final before any row reads it
    reads = reads[np.argsort(-c[reads], kind="stable")]
    reader, read = r[reads], owner[c[reads]]
    depth = [0] * len(heads)
    for i, j in zip(reader.tolist(), read.tolist()):
        depth[i] = max(depth[i], depth[j] + 1)
    depth = np.array(depth, np.int64)
    for lv in range(1, depth.max(initial=0) + 1):
        # the rows read at this level, which are below it and final
        low = np.zeros(len(heads), bool)
        low[read[depth[reader] == lv]] = True
        low, cur = low[r], depth[r] == lv
        table = pivot_table(r[low], c[low], v[low], ncol, p)
        final = through_table(r[cur], c[cur], v[cur], table, ncol, p)
        r, c, v = _joined([(r[~cur], c[~cur], v[~cur]), final])
    return rows[r], c, v


def leveled_rref(mat, p: int):
    """rref_mod of a 2-D integer array whose rows lead in distinct columns, with no pivot search.

    The rows, scaled to a leading 1, go through leveled as entries.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    g, c = np.nonzero(a)
    heads, count = _runs(g)
    rows, lead = g[heads], c[heads]
    v = a[g, c] * np.repeat(inv_mod(a[rows, lead], p), count) % p
    g, c, v = leveled(g, c, v, a.shape[1], p)
    order = np.argsort(lead)
    at = np.zeros(len(a), np.int64)  # each row's place by leading column
    at[rows[order]] = np.arange(len(rows))
    a[:] = 0
    a[at[g], c] = v
    return a[: len(rows)], lead[order].tolist()


def _dense_finish(g, c, v, table, pivots, ncol: int, p: int):
    """The rref of reduced rows and of sparse rows put through a table, as one dense array.

    pivots = (g, c, v) are rows led by a 1 in distinct columns and reduced
    among themselves, which the table leaves out; the other rows are
    entries g, c, v in table's columns.  Those go in slices of at most
    _BLOCK bytes: each is cleared on the pivots found so far by matmul_mod,
    its nonzero rows go through rref_mod, and the earlier pivots are
    cleared on its own.  Returns the reduced rows, by pivot column, and the
    pivot columns.
    """
    heads, count = _runs(pivots[0])
    red = np.zeros((len(heads), ncol), np.int64)
    red[np.repeat(np.arange(len(heads)), count), pivots[1]] = pivots[2]
    found = pivots[1][heads]
    heads = _runs(g)[0]
    step = max(1, _BLOCK // (8 * max(1, ncol)))
    for lo, hi in zip(heads[::step].tolist(), [*heads[step::step].tolist(), len(g)]):
        local = np.cumsum(np.diff(g[lo:hi], prepend=g[lo]) != 0)
        part = np.zeros((local[-1] + 1, ncol), np.int64)
        for key, val in _products(local, c[lo:hi], v[lo:hi], table, ncol, p):
            np.add.at(part.reshape(-1), key, val)
        part = mod(part, p)
        part = mod(part - matmul_mod(part[:, found], red, p), p)
        new, cols = rref_mod(part[part.any(axis=1)], p)
        red = np.concatenate([mod(red - matmul_mod(red[:, cols], new, p), p), new])
        found = np.concatenate([found, np.array(cols, np.int64)])
    order = np.argsort(found)
    return red[order], found[order]


def sparse_rref(g, c, v, table, nrows: int, ncol: int, p: int, nin: int = 0):
    """Reduced row echelon form over F_p of sparse rows put through a table.

    The rows are entries g, c, v in [0, nrows) x table's columns, g
    ascending, and table is through_table's, into [0, ncol).  Each round
    puts the rows through the table.  Then every column that a row not
    yet a pivot leads at takes the row leading there with the fewest
    entries as a new pivot, scaled to lead 1, and leveled reduces the new
    pivots among themselves.  Their pivot_table is the next round's table,
    which every other row, the earlier pivots included, goes through, so
    the pivots stay reduced.  Once a round's products would take no less
    room than its rows as a dense array, three int64 per entry against one
    per cell, the rows finish in _dense_finish.  Returns the
    reduced rows as entries, row k the one with the k-th pivot column
    ascending, the pivot columns, and the rank of rows 0..nin-1.
    """
    kept = 0
    if 0 < nin < nrows:
        a = np.searchsorted(g, nin)
        kept = len(sparse_rref(g[:a], c[:a], v[:a], table, nin, ncol, p)[3])
    done = np.zeros(nrows, bool)  # the pivot rows
    new = (g[:0], c[:0], v[:0])  # the last round's pivots, which its table leaves out
    while True:
        live = np.concatenate([new[0], g])
        live = live[_runs(live)[0]]
        if 3 * table[1][c].sum() >= len(live) * ncol:
            red, pivots = _dense_finish(g, c, v, table, new, ncol, p)
            g, c = np.nonzero(red)
            return g, c, red[g, c], pivots, kept if nin < nrows else len(pivots)
        g, c, v = _joined([new, through_table(g, c, v, table, ncol, p)])
        heads, count = _runs(g)
        rows, lead = g[heads], c[heads]
        free = np.flatnonzero(~done[rows])
        if not len(free):
            break
        order = free[np.lexsort((count[free], lead[free]))]
        pick = order[_runs(lead[order])[0]]
        done[rows[pick]] = True
        scale = np.zeros(len(rows), np.int64)
        scale[pick] = inv_mod(v[heads[pick]], p)
        scale = np.repeat(scale, count)
        acc = scale > 0
        new = leveled(g[acc], c[acc], v[acc] * scale[acc] % p, ncol, p)
        table = pivot_table(*new, ncol, p)
        g, c, v = g[~acc], c[~acc], v[~acc]
    # number the rows by pivot column
    rank = np.zeros(nrows, np.int64)
    rank[rows] = np.argsort(np.argsort(lead))
    order = np.argsort(rank[g], kind="stable")
    return rank[g][order], c[order], v[order], np.sort(lead), kept if nin < nrows else len(lead)


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
