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

A candidate is kept when the wedge of every two of its basis vectors lies
in I_2, by one batched reduction of all the wedges against I_2's rows, and
kept components must meet pairwise in dimension at most 1, so their
Grassmannians are disjoint.  Their union lies in R^1's scheme, so its
Hilbert polynomial, the sum of HP(G(2, dim V)), bounds R^1's from below;
the lead ideal of a partial basis bounds it from above (Traverso, J.
Symbolic Comput. 22, 1996), and CensusStop ends the engine when the two
meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import comb

import numpy as np

from .field import _runs, mod
from .grobner import _CAP, _ints
from .hilbert import HilbertPoly, MonomialIdeal, format_hp, hilbert_numerator, hilbert_polynomial

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


# the twelve terms x ^ y of a net's wedge: places of x and y among its six
# hyperplanes, and signs
_NET_X = np.array([0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3])
_NET_Y = np.array([2, 3, 2, 3, 4, 5, 4, 5, 4, 5, 4, 5])
_NET_SIGN = np.repeat([1, -1, 1], 4)


@lru_cache(maxsize=None)
def _local_pairs(top: int):
    """The basis pairs (j, k), 1 <= j < k < top, of local components on up to top hyperplanes."""
    j, k = np.triu_indices(top, 1)
    return j[j > 0], k[j > 0]


@dataclass(frozen=True)
class Census:
    """Kept components (kind index into KINDS, dimension) and the candidates tried per kind."""

    kinds: np.ndarray
    dims: np.ndarray
    tried: tuple
    explained: HilbertPoly

    def summary(self) -> dict:
        """Candidates and components by kind, components by dimension too, and the HP explained."""
        return dict(
            candidates=dict(zip(KINDS, self.tried)),
            components={k: {str(d): int(c) for d, c in enumerate(np.bincount(self.dims[self.kinds == i]))
                            if c} for i, k in enumerate(KINDS)},
            explained=format_hp(self.explained))


def _disjoint(supp, kinds):
    """Which components meet no earlier one in dimension 2 or more, by their supports alone.

    Vectors of a component supported on t of its hyperplanes span at most
    t - 1 dimensions for a local one, and for a net 2 when t = 6, all of
    its support, and 1 otherwise.  A pair where neither bound is below 2
    could share a 2-plane, and the later of the two is dropped: fewer
    components still bound R^1 from below.
    """
    at = supp.astype(np.int64)
    t = at @ at.T
    big = np.where(kinds[:, None] == 0, t > 2, t == 6)
    r = np.arange(len(t))
    return ~(big & big.T & (r[:, None] < r)).any(axis=0)


def census(flats, n: int, i2) -> Census:
    """The local and (3,2)-net components of R^1 that the flats name and I_2 holds.

    i2 is os_ideal_part(arr, 2, p), whose rows give the reduction.  Each
    candidate's wedges are written as entries in pair coordinates: a local
    flat x0 < x1 < ... gives d e_{x0 xj xk}, the wedge of its basis vectors
    j < k; a net gives (A_1 - A_3) ^ (A_2 - A_3), which is A_1 ^ A_2 -
    A_1 ^ A_3 + A_2 ^ A_3 over the hyperplanes of the classes.
    """
    p, m = i2.p, len(flats)
    sizes = np.array([len(f) for f in flats], np.int64)
    cols = np.array([h for f in flats for h in f], np.int64)  # each flat's hyperplanes, ascending
    inc = np.zeros((m, n), bool)
    inc[np.arange(m).repeat(sizes), cols] = True
    nets = _nets(inc)
    j, k = _local_pairs(int(sizes.max(initial=3)))
    flat, jk = np.nonzero(k < sizes[:, None])
    at = (np.cumsum(sizes) - sizes)[flat]
    x0, xj, xk = cols[at], cols[at + j[jk]], cols[at + k[jk]]
    x, y = nets[:, _NET_X], nets[:, _NET_Y]
    # every wedge as a dense row over the pairs, reduced against I_2 at once
    nloc, nnet = len(flat), len(nets)
    row = np.concatenate([np.arange(3 * nloc) % max(nloc, 1), nloc + np.arange(nnet).repeat(12)])
    low = np.concatenate([xj, x0, x0, np.minimum(x, y).ravel()])
    high = np.concatenate([xk, xk, xj, np.maximum(x, y).ravel()])
    val = np.concatenate([np.repeat([1, -1, 1], nloc), np.where(x < y, _NET_SIGN, -_NET_SIGN).ravel()])
    # a wedge has at most twelve terms, each +-1, so its pivot part times
    # I_2's rows sums at most twelve residues per entry, far inside int64
    w = np.zeros((nloc + nnet, n * (n - 1) // 2), np.int64)
    w[row, low * (2 * n - low - 1) // 2 + high - low - 1] = val
    bad = mod(w[:, i2.pivots] @ i2.rows - w, p).any(axis=1)
    # a candidate is kept when none of its wedges is left over
    keep = np.concatenate([np.bincount(flat[bad[:nloc]], minlength=m) == 0, ~bad[nloc:]])
    supp = np.zeros((m + nnet, n), bool)
    supp[:m] = inc
    supp[m + np.arange(nnet).repeat(6), nets.ravel()] = True
    kinds = np.repeat([0, 1], [m, nnet])[keep]
    dims = np.concatenate([sizes - 1, np.full(nnet, 2)])[keep]
    keep = _disjoint(supp[keep], kinds)
    kinds, dims = kinds[keep], dims[keep]
    total = []
    for d, c in enumerate(np.bincount(dims).tolist()):
        g = grassmannian_hp(d).coeffs if c else ()
        total = [a + c * b for a, b in zip_longest(total, g, fillvalue=0)]
    while total and not total[-1]:
        total.pop()
    return Census(kinds, dims, (m, nnet), HilbertPoly(tuple(total)))


def _ruled_out(supp, explained: HilbertPoly) -> bool:
    """Whether counts on the leads' support rows supp show that their HP is not explained.

    A set of variables that holds no lead's support, an open set, spans a
    coordinate subspace of V(in).  With d = deg(explained) + 1, an open set
    of d + 1 variables shows that dim S/in passes d.  Open sets of d
    variables are then the top-dimensional components of V(in), each adding
    at least 1 to its degree, so more of them than explained's top
    coefficient rule it out too; they are counted for d <= 3 only, by the
    graph of pairs that no lead fills.  The open set of d + 1 grows
    greedily, by the variable in the fewest leads, so False says "maybe".
    """
    d = len(explained.coeffs)
    # integer matrix products count faster than sums over an axis, and
    # take no BLAS buffer
    f = supp.astype(np.int64)
    size = f @ np.ones(f.shape[1], np.int64)
    open_ = (size == 1) @ f == 0  # no pure power
    keep = f @ ~open_ == 0  # a lead on a closed variable fits in no open set
    f, size = f[keep][:, open_], size[keep]
    order = np.argsort(np.ones(len(f), np.int64) @ f, kind="stable")
    left, free = size.copy(), np.ones(f.shape[1], bool)
    for _ in range(d + 1):
        free &= (left == 1) @ f == 0
        if not free.any():
            break
        v = order[free[order].argmax()]
        free[v] = False
        left -= f[:, v]
    else:
        return True
    if d == 1:
        return f.shape[1] > explained.coeffs[-1]
    if d not in (2, 3):
        return False
    # the graph of open pairs, and its cliques of d vertices less the supports of d variables
    n = f.shape[1]
    pair = 1 - np.eye(n, dtype=np.int64)
    i, j = np.nonzero(f[size == 2])[1].reshape(-1, 2).T
    pair[i, j] = pair[j, i] = 0
    if d == 2:
        count = pair.sum() // 2
    else:
        i, j, k = np.nonzero(f[size == 3])[1].reshape(-1, 3).T
        code = np.sort((i * n + j) * n + k)  # leads may share a support
        i, jk = np.divmod(code[_runs(code)[0]], n * n)
        j, k = np.divmod(jk, n)
        count = ((pair @ pair) * pair).sum() // 6 - (pair[i, j] * pair[i, k] * pair[j, k]).sum()
    return bool(count > explained.coeffs[-1])


class CensusStop:
    """buchberger's stop hook: stop once the leads' HP equals the HP the census explains.

    It is called with the digit rows of all the leads after each degree.
    The leads' HP bounds R^1's from above and the census's from below, so
    equality certifies it.  The numerator is computed only when the leads
    are new and _ruled_out cannot rule them out, and the last one is kept,
    with the lead count it belongs to, for r1 to reuse.
    """

    def __init__(self, ring, explained: HilbertPoly):
        self.ord, self.nvars, self.explained = ring.ord, ring.nvars, explained
        self.leads, self.numer, self.count, self.checks = -1, None, {}, 0

    def __call__(self, digits) -> bool:
        if len(digits) == self.leads or _ruled_out(digits != _CAP, self.explained):
            return False
        self.leads, self.checks = len(digits), self.checks + 1
        self.numer = hilbert_numerator(MonomialIdeal(self.ord, _ints(digits), digits), self.count)
        return hilbert_polynomial(self.numer, self.nvars) == self.explained
