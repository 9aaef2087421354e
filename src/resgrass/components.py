"""Components of R^1 named from the flats, and the Hilbert polynomial they explain.

R^1 is a union of linear subspaces V that meet pairwise only at 0
(Libgober-Yuzvinsky, Compositio 121, 2000), and each gives G(2, V) inside
G(2, n) meet P(I_2).  Two kinds are named from the flats alone:

- local: a flat X with |X| >= 3 gives {a : supp a in X, sum a = 0}, of
  dimension |X| - 1, spanned by e_x - e_x0 over the x in X past its first;
- (3,2)-net: four flats meeting pairwise in one hyperplane, six distinct.
  The meeting points of complementary pairs of flats form the classes
  A_1, A_2, A_3, and e(A_1) - e(A_3), e(A_2) - e(A_3) span the component,
  e(A) the sum of e_H over H in A (Falk-Yuzvinsky, Compositio 143, 2007).

The flats are read off I_2's own dependent triples, so they are flats over
the field I_2 lives in, and three facts hold without a test.  A local
component lies in R^1: the wedge of e_xj - e_x0 and e_xk - e_x0 is the
boundary of the dependent triple {x0, xj, xk}.  So does a net's: with
a_i, b_i, c_i the hyperplanes of A_1, A_2, A_3 on its i-th flat, its wedge
is the sum of the four boundaries of those triples, over Z.  And the
components meet pairwise only at 0: two flats share at most one
hyperplane; a nonzero vector of a net's plane has two whole classes in
its support, which no flat holds, since a flat holds one hyperplane of
each class (a net's flat) or hyperplanes of one class only; and six
hyperplanes determine their net.  So their Grassmannians are disjoint in
R^1's scheme, and the sum of their HPs, HP(G(2, dim V)), bounds R^1's
from below; the lead ideal of a partial basis bounds it from above
(Traverso, J. Symbolic Comput. 22, 1996), and CensusStop ends the engine
when the two meet.  Where every component is a G(2, 2), a point, as on
the braids, the census's HP is a constant c, and the hook compares it
with a count of the leads' standard pairs along the open axes, stopped
once it passes c (hilbert.constant_hp; Sturmfels-Trung-Vogel, Math. Ann.
302, 1995); other HPs go through the Hilbert series.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb

import numpy as np

from .arrangement import flats_of
from .field import _runs
from .grobner import _CAP, _ints
from .hilbert import (
    HilbertPoly,
    MonomialIdeal,
    constant_hp,
    format_hp,
    hilbert_numerator,
    hilbert_polynomial,
)

KINDS = ("local", "net")


def grassmannian_hp(k: int) -> HilbertPoly:
    """HP of G(2, k) in its Plucker embedding, from HF(d) = C(k+d-1, d) C(k+d-2, d) / (d+1).

    G(2, k) is arithmetically Cohen-Macaulay of dimension 2k - 3 as a
    cone, so its series is h(t) / (1 - t)^(2k-3) with deg h <= k - 2: the
    first 2k values of HF times (1 - t)^(2k-3) give h exactly.  It is not
    cached, so every r1 call makes the same hilbert_polynomial calls, which
    the benchmark's tracer counts per pass.
    """
    if k < 2:
        return HilbertPoly(())
    dim, top = 2 * k - 3, 2 * k
    hf = [comb(k + d - 1, d) * comb(k + d - 2, d) // (d + 1) for d in range(top)]
    ones = [(-1) ** j * comb(dim, j) for j in range(dim + 1)]
    h = [sum(ones[j] * hf[d - j] for j in range(min(d, dim) + 1)) for d in range(top)]
    return hilbert_polynomial(h, dim)


def decode_hp(hp: HilbertPoly):
    """{k: c_k} with hp = sum c_k HP(G(2, k)), each c_k a positive integer, or None.

    HP(G(2, k)) has degree 2(k - 2) and top coefficient Catalan(k - 2), so
    the terms peel off from the top, one k at a time.
    """
    coeffs, out = list(hp.coeffs), {}
    while coeffs:
        top = len(coeffs) - 1
        k = top // 2 + 2
        g = grassmannian_hp(k).coeffs
        c, r = divmod(coeffs[-1], g[-1])
        if top % 2 or c <= 0 or r:
            return None
        out[k] = c
        coeffs = [a - c * b for a, b in zip(coeffs, g + (0,) * len(coeffs))]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return dict(sorted(out.items()))


def _nets(inc):
    """The (3,2)-nets of flats with incidence rows inc, as rows of six hyperplanes.

    Nets are the 4-cliques a < b < c < d of the graph of flats that meet,
    grown from its edges by common neighbours, whose six meeting points
    are distinct.  They come as the classes (h_ab, h_cd), (h_ac, h_bd) and
    (h_ad, h_bc), h_xy where flats x and y meet.
    """
    m, n = inc.shape
    # flats share at most one hyperplane h, so this sums h + 1 over none or one
    at = inc.astype(np.int64)
    where = (at * np.arange(1, n + 1)) @ at.T - 1
    r = np.arange(m)
    adj = (where >= 0) & (r[:, None] < r)
    a, b = np.nonzero(adj)
    e, c = np.nonzero(adj[a] & adj[b])
    a, b = a[e], b[e]
    e, d = np.nonzero(adj[a] & adj[b] & adj[c])
    a, b, c = a[e], b[e], c[e]
    h = where[np.array([a, c, a, b, a, b]), np.array([b, d, c, d, d, c])].T
    return h[(np.diff(np.sort(h, axis=1), axis=1) != 0).all(axis=1)]


@dataclass(frozen=True)
class Census:
    """Named components (kind index into KINDS, dimension) and the HP they explain."""

    kinds: np.ndarray
    dims: np.ndarray
    explained: HilbertPoly

    def summary(self) -> dict:
        """Components by kind and dimension, and the HP explained."""
        return dict(
            components={k: {str(d): int(c) for d, c in enumerate(np.bincount(self.dims[self.kinds == i]))
                            if c} for i, k in enumerate(KINDS)},
            explained=format_hp(self.explained))


def census(i2) -> Census:
    """The local and (3,2)-net components of R^1 named from the flats of I_2's dependent triples.

    i2 is os_ideal_part(arr, 2, p), whose circuits are those triples.
    """
    flats = flats_of(i2.circuits)
    m, sizes = len(flats), np.array([len(f) for f in flats], np.int64)
    inc = np.zeros((m, i2.n), bool)
    inc[np.arange(m).repeat(sizes), np.array([h for f in flats for h in f], np.int64)] = True
    nnet = len(_nets(inc))
    kinds = np.repeat([0, 1], [m, nnet])
    dims = np.concatenate([sizes - 1, np.full(nnet, 2)])
    total = []
    for d, c in enumerate(np.bincount(dims).tolist()):
        g = grassmannian_hp(d).coeffs if c else ()
        total = [a + c * b for a, b in zip_longest(total, g, fillvalue=0)]
    return Census(kinds, dims, HilbertPoly(tuple(total)))


def _ruled_out(supp, explained: HilbertPoly) -> bool:
    """Whether counts on the leads' support rows supp show that their HP is not explained.

    A set of variables that holds no lead's support, an open set, spans a
    coordinate subspace of V(in).  With d = deg(explained) + 1, an open set
    of d + 1 variables shows that dim S/in passes d.  Open sets of d
    variables are then the top-dimensional components of V(in), each adding
    at least 1 to its degree, so more of them than explained's top
    coefficient rule it out too.  Open sets of 1, 2 and 3 variables are
    counted exactly, up to d, by the graph of pairs that no lead fills, so
    for d <= 2 the test for an open set of d + 1 is exact too.  Above that
    the open set of d + 1 grows greedily, by the variable in the fewest
    leads, so False says "maybe".
    """
    d = len(explained.coeffs)
    # integer matrix products count faster than sums over an axis, and
    # take no BLAS buffer
    f = supp.astype(np.int64)
    size = f @ np.ones(f.shape[1], np.int64)
    open_ = (size == 1) @ f == 0  # no pure power
    keep = f @ ~open_ == 0  # a lead on a closed variable fits in no open set
    f, size = f[keep][:, open_], size[keep]
    n = f.shape[1]
    opens = [n]  # opens[k - 1]: the open sets of k variables
    if 1 <= d <= 3:
        # the graph of open pairs, and its triangles less the supports of 3 variables
        pair = 1 - np.eye(n, dtype=np.int64)
        i, j = np.nonzero(f[size == 2])[1].reshape(-1, 2).T
        pair[i, j] = pair[j, i] = 0
        opens.append(pair.sum() // 2)
    if 2 <= d <= 3:
        i, j, k = np.nonzero(f[size == 3])[1].reshape(-1, 3).T
        code = np.sort((i * n + j) * n + k)  # leads may share a support
        i, jk = np.divmod(code[_runs(code)[0]], n * n)
        j, k = np.divmod(jk, n)
        opens.append(((pair @ pair) * pair).sum() // 6
                     - (pair[i, j] * pair[i, k] * pair[j, k]).sum())
    if d < len(opens):
        if opens[d]:
            return True
    else:
        order = np.argsort(np.ones(len(f), np.int64) @ f, kind="stable")
        left, free = size.copy(), np.ones(n, bool)
        for _ in range(d + 1):
            free &= (left == 1) @ f == 0
            if not free.any():
                break
            v = order[free[order].argmax()]
            free[v] = False
            left -= f[:, v]
        else:
            return True
    return 1 <= d <= 3 and bool(opens[d - 1] > explained.coeffs[-1])


class CensusStop:
    """The engine's stop hook: stop once the leads' HP equals the HP the census explains.

    It is called with the digit rows of all the leads after each degree.
    The leads' HP bounds R^1's from above and the census's from below, so
    equality certifies it, and certificate says how it was found.  When the
    census's HP is a constant c, constant_hp counts along the open axes up
    to c ("axes").  Otherwise the numerator is computed when the leads are
    new and _ruled_out cannot rule them out ("series"), and the last one is
    kept, with the lead count it belongs to, for r1 to reuse.  checks counts
    the lead sets whose HP was computed.
    """

    def __init__(self, ring, explained: HilbertPoly):
        self.ord, self.nvars, self.explained = ring.ord, ring.nvars, explained
        self.constant = sum(explained.coeffs) if explained.degree() <= 0 else None
        self.leads, self.numer, self.checks, self.certificate = -1, None, 0, None
        self.count = dict(calls=0, hits=0)

    def __call__(self, digits) -> bool:
        if len(digits) == self.leads:
            return False
        if self.constant is not None:
            c = constant_hp(digits, self.constant)
            if c is None:
                return False
            self.leads, self.checks = len(digits), self.checks + 1
            done = c == self.constant
        else:
            if _ruled_out(digits != _CAP, self.explained):
                return False
            self.leads, self.checks = len(digits), self.checks + 1
            self.numer = hilbert_numerator(MonomialIdeal(self.ord, _ints(digits), digits), self.count)
            done = hilbert_polynomial(self.numer, self.nvars) == self.explained
        if done:
            self.certificate = "series" if self.constant is None else "axes"
        return done
