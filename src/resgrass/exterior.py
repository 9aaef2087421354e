"""Exterior algebra over F_p on symbols e_0..e_{n-1}, with subset basis.

A grade-r element is a dict mapping strictly increasing r-tuples of indices to
nonzero coefficients.  The boundary of e_S is the alternating sum of its
facets; its span over all dependent sets S generates the relation ideal,
whose slice I_k in each grade k lives in a Subspace object.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .arrangement import Arrangement, circuits
from .field import DEFAULT_MODULUS, _runs, check_kernel_modulus, leveled_rref


def _merge_signed(a: tuple, b: tuple):
    """Merge two increasing tuples, or None if they overlap; sign = (-1)^inversions."""
    out = []
    i = j = inv = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inv += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1) ** inv, tuple(out)


class ExtElement:
    """Homogeneous element of the exterior algebra over F_p."""

    __slots__ = ("p", "grade", "terms")

    def __init__(self, p: int, grade: int, terms=None):
        self.p = p
        self.grade = grade
        clean = {}
        for key, c in (terms or {}).items():
            key = tuple(key)
            if len(key) != grade or any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"bad grade-{grade} basis subset {key}")
            c %= p
            if c:
                clean[key] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: int) -> "ExtElement":
        return ExtElement(self.p, self.grade, {k: v * c for k, v in self.terms.items()})

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if (self.p, self.grade) != (other.p, other.grade):
            raise ValueError("grade or modulus mismatch")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return ExtElement(self.p, self.grade, terms)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + other.scale(-1)

    def __neg__(self) -> "ExtElement":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElement)
            and self.p == other.p
            and self.grade == other.grade
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.grade, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            if c > self.p // 2:
                c -= self.p
            name = "e" + ",".join(map(str, key)) if key else "1"
            if c == 1:
                bits.append(f"+ {name}")
            elif c == -1:
                bits.append(f"- {name}")
            else:
                bits.append(f"{'+' if c > 0 else '-'} {abs(c)}*{name}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def wedge(x: ExtElement, y: ExtElement) -> ExtElement:
    """Exterior product; the sign is the inversion count of the index merge."""
    if x.p != y.p:
        raise ValueError("modulus mismatch")
    p = x.p
    terms: dict = {}
    for ka, ca in x.terms.items():
        for kb, cb in y.terms.items():
            merged = _merge_signed(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            terms[key] = terms.get(key, 0) + sign * ca * cb
    return ExtElement(p, x.grade + y.grade, terms)


def boundary(subset, p: int = DEFAULT_MODULUS) -> ExtElement:
    """d(e_S) = sum_i (-1)^i e_{S minus its i-th element}."""
    s = tuple(sorted(subset))
    if len(set(s)) != len(s):
        raise ValueError(f"subset {subset} repeats an index")
    terms = {}
    for i in range(len(s)):
        terms[s[:i] + s[i + 1:]] = (-1) ** i
    return ExtElement(p, len(s) - 1, terms)


class Subspace:
    """Subspace of the grade-k slice, held in reduced echelon form.

    Coordinates run over the k-subsets of range(n) in lexicographic order, so
    equal subspaces always carry identical rows, an int64 array.  A slice of
    the relation ideal also keeps the circuits it was built from.
    """

    __slots__ = ("n", "k", "p", "subsets", "index", "rows", "pivots", "circuits")

    def __init__(self, n: int, k: int, p: int, rows, pivots, circuits=()):
        self.n, self.k, self.p = n, k, p
        self.subsets = list(combinations(range(n), k))
        self.index = {s: i for i, s in enumerate(self.subsets)}
        self.rows = rows
        self.pivots = pivots
        self.circuits = circuits

    def dim(self) -> int:
        return len(self.rows)

    def ambient_dim(self) -> int:
        return len(self.subsets)

    def coset_columns(self):
        """Indices of the non-pivot coordinates, which span a complement."""
        pivot_set = set(self.pivots)
        return [i for i in range(len(self.subsets)) if i not in pivot_set]

    def coset_subsets(self):
        """Basis subsets of a complement: the non-pivot coordinates."""
        return [self.subsets[i] for i in self.coset_columns()]


def os_ideal_part(arr: Arrangement, k: int, p: int = DEFAULT_MODULUS) -> Subspace:
    """The grade-k slice I_k of the ideal generated by boundaries of dependent sets.

    I_k is spanned by e_J ^ boundary(C) over the circuits C (minimal dependent
    sets) with |C| <= k+1.  Its leading coordinate in the lex order is
    e_T, T = J u B, where B is C minus its largest element (a broken circuit)
    and J is disjoint from B.  One such row for each k-set T that contains a
    broken circuit gives C(n, k) - b_k rows with distinct leading coordinates:
    a basis of I_k by the no-broken-circuit theorem (Bjorner 1982; Orlik-Terao,
    Arrangements of Hyperplanes, 3.5, with the order reversed), which
    leveled_rref brings to reduced echelon form with no pivot search; for
    k = 2 they are in that form as written off the flats (ideal_slice).  Up to
    sign, the row is read off facets: it is e_T when max C lies in T, and
    otherwise, with V = T u {max C}, the sum of (-1)^j e_{V - v_j} over the
    j-th elements v_j of V that lie in C; the echelon form does not see the
    sign.  The circuits come from one arrangement.circuits pass (ideal_slice
    takes them).  The theorem needs the matroid over F_p, so a realization
    whose columns are zero or proportional mod p is refused.  Flats-only
    arrangements know their size-3 dependencies, hence support k <= 2 only
    (the slice for k < 2 is zero).  The circuits of size <= k+1 come back
    with the slice: for k = 2, every dependent triple.
    """
    check_kernel_modulus(p)
    return ideal_slice(arr.n, k, p, circuits(arr, min(k + 1, arr.n), p)[0])


def leading_sets(n: int, k: int, circs) -> dict:
    """The leading k-sets of I_k's rows, each with the first of circs, of size <= k + 1, that reaches it.

    A circuit C reaches every k-set of n hyperplanes that holds C less its
    largest element, so there are dim I_k of them.
    """
    leads = {}
    for C in circs:
        rest = [i for i in range(n) if i not in C[:-1]]
        for J in combinations(rest, k - len(C) + 1):
            leads.setdefault(tuple(sorted(J + C[:-1])), C)
    return leads


def ideal_slice(n: int, k: int, p: int, circs) -> Subspace:
    """os_ideal_part from given circuits of n hyperplanes; those above size k + 1 are left out.

    For k = 2 the rows are written down from the rank-2 flats: a flat X
    with largest hyperplane m has the row boundary(a, b, m) = e_ab - e_am +
    e_bm for each pair a < b of X less m.  Those pairs are the a < b of the
    dependent triples (a, b, c), and the largest such c is m.  A row leads
    at the broken circuit e_ab, and e_am and e_bm lie in X alone and lead
    no row, so the rows, by leading pair, are in reduced echelon form
    already.  For k >= 3 each leading k-set T keeps the first circuit C
    that reaches it (leading_sets), and its row is the facet sum of
    os_ideal_part, which leveled_rref reduces.
    """
    sub = Subspace(n, k, p, None, None, [C for C in circs if len(C) <= k + 1])
    if k == 2:
        key = np.array(sorted((a * n + b) * n + c for a, b, c in sub.circuits), np.int64)
        heads, count = _runs(key // n)
        a, b, m = key[heads] // (n * n), key[heads] // n % n, key[heads + count - 1] % n
        col = lambda i, j: i * (2 * n - i - 3) // 2 + j - 1  # the lex index of pair i < j
        sub.rows = np.zeros((len(heads), len(sub.subsets)), np.int64)
        for i, j, c in ((a, b, 1), (a, m, p - 1), (b, m, 1)):
            sub.rows[np.arange(len(heads)), col(i, j)] = c
        sub.pivots = col(a, b).tolist()
        return sub
    leads = leading_sets(n, k, sub.circuits)
    mat = np.zeros((len(leads), len(sub.subsets)), dtype=np.int64)
    for r, (T, C) in enumerate(leads.items()):
        if C[-1] in T:
            mat[r, sub.index[T]] = 1
            continue
        V = tuple(sorted(T + C[-1:]))
        for j, v in enumerate(V):
            if v in C:
                mat[r, sub.index[V[:j] + V[j + 1 :]]] = (-1) ** j
    sub.rows, sub.pivots = leveled_rref(mat, p)
    return sub
