"""Prime moduli and small dense linear algebra over F_p.

There is one elimination path: every rank and row reduction in the package
goes through the numpy kernels rref_mod and batch_rank, for moduli up to
MAX_KERNEL_MODULUS.  rref_mod works in int64; batch_rank and matmul_mod
work in the narrowest integer type that holds every value they form, int8
for the F_3 scans and int32 at p = 31991, and take remainders through
mod, which is many times faster than numpy's %.  rref, rank and
kernel_basis take plain lists of rows of any integers and reduce them mod
p before they reach a kernel.  Everything in this package is exact:
matmul_mod computes in float64 only where every sum stays below 2^53.
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
# float64 holds every integer below 2^53 exactly, whatever the summation order
_FLOAT_EXACT = 2**53

# Points per batch of the projective scans: enough to amortize numpy calls,
# few enough that a batch's arrays stay a few megabytes.
BATCH_ROWS = 1024


def check_kernel_modulus(p: int, what: str = "modulus") -> None:
    """InputError unless the numpy kernels compute exactly mod p."""
    if p > MAX_KERNEL_MODULUS:
        raise InputError(
            f"{what} {p} is above {MAX_KERNEL_MODULUS}, the largest modulus the "
            "numpy kernels compute exactly"
        )


def check_enumeration_field(q: int) -> None:
    """InputError unless q is a prime the numpy kernels take as an F_q to enumerate."""
    if not is_prime(q):
        raise InputError(f"enumeration field size must be prime, got {q}")
    check_kernel_modulus(q, "enumeration field size")


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

    b may carry leading stack dimensions, which the product broadcasts over.
    The residues come in the narrowest type that holds p and every sum of
    products, since reducing there is cheapest.
    Products whose sums stay below 2^53 go through float64 exactly;
    otherwise the inner dimension is cut into blocks short enough that a
    block's sum of products, added to the running residue, fits in int64.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < _FLOAT_EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return mod(prod.astype(kernel_dtype(max(p, inner * (p - 1) ** 2))), p)
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


def inv_mod(x, p: int):
    """Elementwise inverse of an array of nonzero residues, as x^(p-2)."""
    out = np.ones_like(x)
    base = mod(x, p)
    e = p - 2
    while e:
        if e & 1:
            out = mod(out * base, p)
        base = mod(base * base, p)
        e >>= 1
    return out


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
    reduced only before it could overflow.  The stack is eliminated
    column-major, so a transposed view of a (cols, batch, rows) array in
    that type is taken without a copy.
    """
    batch, rows, ncols = mats.shape
    ranks = np.zeros(batch, dtype=np.int64)
    if rows == 0:
        return ranks
    growth = (p - 1) ** 2
    whole = p * (p - 1) + ncols * growth
    dtype = kernel_dtype(whole if whole <= _INT32_MAX else p * (p - 1))
    limit = np.iinfo(dtype).max
    # column-major stack: a[c] holds column c of every matrix
    a = np.ascontiguousarray(mats.transpose(2, 0, 1), dtype=dtype)
    at = np.arange(batch)
    bound = p  # every entry lies in (-bound, bound)
    for _ in range(ncols):
        if bound > limit - growth:
            a = mod(a, p)
            bound = p
        col = mod(a[0], p)
        nonzero = col != 0
        ranks += nonzero.any(axis=1)
        pivot = mod(a[:, at, nonzero.argmax(axis=1)], p)
        # a matrix without a pivot has an all-zero column, so its update
        # below is zero whatever its pivot row holds
        scaled = mod(pivot[1:] * inv_mod(pivot[0], p), p)
        a = a[1:] - scaled[:, :, None] * col
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
    """batch_rank on one matrix given as a list of rows."""
    return int(batch_rank(residues(rows, ncols, p)[None], p)[0])


def kernel_basis(rows, ncols: int, p: int):
    """Basis of the right kernel {v : M v = 0}, itself in reduced echelon form.

    An empty matrix (no rows) has the full space as kernel, so the identity
    basis comes back.
    """
    red, pivots = rref(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vecs = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f] % p
        vecs.append(v)
    out, _ = rref(vecs, ncols, p)
    return out


def projective_points(q: int, m: int):
    """The points of P^{m-1}(F_q) with first nonzero coordinate 1, in batches.

    Each batch is an int64 array of at most BATCH_ROWS points.  The points come
    ordered by the position of their leading 1, then by the coordinates
    after it as itertools.product lists them, so the memory held at once
    does not grow with the number of points.
    """
    for lead in range(m):
        total = q ** (m - lead - 1)
        for start in range(0, total, BATCH_ROWS):
            size = min(BATCH_ROWS, total - start)
            batch = np.zeros((size, m), dtype=np.int64)
            batch[:, lead] = 1
            # add 0..size-1 to the base-q digits of start, last digit first
            carry = np.arange(size, dtype=np.int64)
            rest = start
            for c in range(m - 1, lead, -1):
                rest, digit = divmod(rest, q)
                val = carry + digit
                batch[:, c] = val % q
                carry = val // q
            yield batch
