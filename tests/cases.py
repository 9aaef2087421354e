"""Small arrangements and moduli shared by the test modules."""

from itertools import combinations

from resgrass.arrangement import Arrangement, from_matrix

# the largest prime the int64 kernels take, and the first prime they refuse
BOUNDARY_PRIME = 2**31 - 1
FIRST_REFUSED = 2**31 + 11

PENCIL = Arrangement(3, ((0, 1, 2),), None, "pencil")
BOOLEAN = from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="boolean", p=3)


def braid_rows(ell):
    """Realization of the braid arrangement A_ell: columns e_i - e_j of F^(ell+1)."""
    pairs = list(combinations(range(ell + 1), 2))
    return [[1 if r == i else -1 if r == j else 0 for i, j in pairs] for r in range(ell + 1)]


def braid(ell):
    return from_matrix(braid_rows(ell), name=f"A{ell}")
