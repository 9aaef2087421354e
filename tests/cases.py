"""Small arrangements and moduli shared by the test modules."""

import random
from itertools import combinations

from resgrass.arrangement import Arrangement, dependent_sets, from_matrix
from resgrass.exterior import ExtElement, Subspace, boundary, wedge
from resgrass.grobner import PluckerRing, buchberger, plucker_ideal
from resgrass.hilbert import format_hp, hilbert_numerator, hilbert_polynomial, leading_ideal
from resgrass.resonance import os_points, span_forms

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


def relabelled_a4():
    order = list(range(10))
    random.Random(5).shuffle(order)
    return from_matrix([[row[j] for j in order] for row in braid_rows(4)], name="A4 relabelled")


def reference_os_ideal_part(arr, k, p):
    """I_k from its full spanning set: e_J ^ boundary(S) over every dependent S, then rref."""
    elems = []
    if k >= 2:
        for S in dependent_sets(arr, min(k + 1, arr.n), p):
            d = boundary(S, p)
            jsize = k - len(S) + 1
            if jsize == 0:
                elems.append(d)
            else:
                for J in combinations(range(arr.n), jsize):
                    w = wedge(ExtElement(p, jsize, {J: 1}), d)
                    if not w.is_zero():
                        elems.append(w)
    return Subspace.from_elements(arr.n, k, p, elems)


def reference_r1_hilbert(arr, p):
    """(hilbert, n_os_points, n_span_forms) in the C(n, 2) pair variables.

    The ideal is the Plucker quadrics plus the linear forms vanishing on the
    span of the OS points, one point per dependent triple.
    """
    pts = os_points(arr, p)
    ring = PluckerRing(arr.n, p)
    forms = span_forms(pts, ring)
    if not pts:
        return "0", 0, len(forms)
    gb = buchberger(plucker_ideal(ring) + forms, ring=ring)
    hp = hilbert_polynomial(hilbert_numerator(leading_ideal(gb)), ring.nvars)
    return format_hp(hp), len(pts), len(forms)
