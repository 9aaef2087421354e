"""Small arrangements and moduli shared by the test modules."""

import hashlib
import os
import random
import subprocess
import sys
from heapq import heapify, heappop, heappush
from itertools import combinations
from pathlib import Path

import numpy as np

from resgrass.arrangement import Arrangement, dependent_sets, from_matrix
from resgrass.errors import InputError
from resgrass.exterior import ExtElement, Subspace, boundary, os_ideal_part, wedge
from resgrass.grobner import (
    _CAP,
    _W,
    PluckerRing,
    Poly,
    PolyRing,
    buchberger,
    plucker_ideal,
)
from resgrass.field import DEFAULT_MODULUS, kernel_dtype, matmul_mod, mod, projective_points
from resgrass.hilbert import format_hp, hilbert_numerator, hilbert_polynomial, leading_ideal
from resgrass.resonance import Plane, _plucker_terms, os_points, span_forms

# the largest prime the int64 kernels take, and the first prime they refuse
BOUNDARY_PRIME = 2**31 - 1
FIRST_REFUSED = 2**31 + 11

# JSON arrangements that must be refused: the loader used to truncate floats
# to ints, read n = true as 1, or end in a traceback on most of them
MALFORMED_JSON = (
    '{"n": 3, "matrix": [[1, 0, 1.5], [0, 1, 1]]}',
    '{"n": 3, "flats": [[0, 1, 2.9]]}',
    '{"n": true, "matrix": [[1], [0]]}',
    '{"n": 3.0, "flats": [[0, 1, 2]]}',
    '{"n": 3, "flats": [1, 2, 3]}',
    '{"n": 3, "flats": [[0, 1, true]]}',
    '{"n": 3, "matrix": 5}',
    '{"n": 3, "matrix": [1, 0, 1]}',
    '{"n": 3, "matrix": [["a", 0, 1], [0, 1, 1]]}',
    '{"n": 3, "matrix": [[1e400, 0, 1], [0, 1, 1]]}',
    '{"n": 3, "matrix": [[1, 0, 1], [0, 1, 1]], "flats": "012"}',
)

# JSON arrangements whose name is not a string; the loader passed any value
# through, and describe() and the r1 report printed it
NON_STRING_NAMES = tuple(
    f'{{"n": 3, "flats": [[0, 1, 2]], "name": {name}}}'
    for name in ("[1, 2]", "7", "2.5", "true", "false", "null", '{"a": 1}')
)

PENCIL = Arrangement(3, ((0, 1, 2),), None, "pencil")
BOOLEAN = from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], name="boolean", p=3)


def braid_rows(ell):
    """Realization of the braid arrangement A_ell: columns e_i - e_j of F^(ell+1)."""
    pairs = list(combinations(range(ell + 1), 2))
    return [[1 if r == i else -1 if r == j else 0 for i, j in pairs] for r in range(ell + 1)]


def braid(ell):
    return from_matrix(braid_rows(ell), name=f"A{ell}")


def relabelled_a4(seed=5):
    order = list(range(10))
    random.Random(seed).shuffle(order)
    return from_matrix([[row[j] for j in order] for row in braid_rows(4)], name="A4 relabelled")


def graphic(v: int, edges, p: int = DEFAULT_MODULUS):
    """The graphic arrangement of a simple graph on v vertices: one column e_i - e_j per edge."""
    rows = [[(r == i) - (r == j) for i, j in edges] for r in range(v)]
    return from_matrix(rows, name=f"graph{v}:{len(edges)}", p=p)


def ceva3():
    """Ceva(3), flats only: the 9 lines of (x^3 - y^3)(y^3 - z^3)(x^3 - z^3).

    Its 12 triple points are read off over F_7, where omega = 2 is a
    primitive cube root of 1.
    """
    normals = [(1, -c, 0) for c in (1, 2, 4)] + [(0, 1, -c) for c in (1, 2, 4)]
    normals += [(1, 0, -c) for c in (1, 2, 4)]
    return Arrangement(9, from_matrix(list(zip(*normals)), p=7).flats, None, "Ceva(3)")


def direct_sum(a, b):
    """a (+) b: b's hyperplanes follow a's, in complementary coordinates.

    Two realizations give the block-diagonal matrix, read over a's prime;
    otherwise the flats of both, b's shifted past a's, with no matrix.
    """
    name = f"{a.name}+{b.name}"
    if a.matrix is None or b.matrix is None:
        flats = a.flats + tuple(tuple(i + a.n for i in f) for f in b.flats)
        return Arrangement(a.n + b.n, flats, None, name)
    rows = [row + (0,) * b.n for row in a.matrix] + [(0,) * a.n + row for row in b.matrix]
    return from_matrix(rows, name=name, p=a.p)


def reference_rref(rows, ncols: int, p: int):
    """Pure-Python reduced row echelon form over F_p: (reduced rows, pivot columns).

    Pivoting takes the first nonzero entry scanning top to bottom; zero rows
    are dropped.  The twin of field.rref_mod, for the tests to compare with.
    """
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [v * inv % p for v in mat[r]]
        lead = mat[r]
        for i in range(len(mat)):
            f = mat[i][c]
            if f and i != r:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_kernel(rows, ncols: int, p: int):
    """Reduced echelon basis of {v : M v = 0} by reference_rref; the twin of field.kernel_basis.

    Each free column f of the reduced M gives e_f less column f at the
    pivots, and reference_rref puts those vectors in reduced echelon form.
    """
    red, pivots = reference_rref(rows, ncols, p)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[f] % p
        vecs.append(v)
    return reference_rref(vecs, ncols, p)[0]


def reference_rank(rows, ncols: int, p: int) -> int:
    """Pure-Python rank over F_p by forward elimination; the twin of field.batch_rank."""
    mat = [[x % p for x in row] for row in rows]
    rk = 0
    for c in range(ncols):
        pr = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rk], mat[pr] = mat[pr], mat[rk]
        inv = pow(mat[rk][c], p - 2, p)
        lead = [v * inv % p for v in mat[rk]]
        mat[rk] = lead
        for i in range(rk + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], lead)]
        rk += 1
        if rk == len(mat):
            break
    return rk


def subspace_vector(sub, x):
    """The coordinate row of the grade-k element x in sub's k-subset basis."""
    if x.grade != sub.k or x.p != sub.p:
        raise ValueError("element grade or modulus mismatch")
    row = [0] * len(sub.subsets)
    for key, c in x.terms.items():
        row[sub.index[key]] = c
    return row


def reduce_rows(sub, mat):
    """Each row of mat reduced modulo sub (pivot coordinates zeroed), as int64.

    The rows lose their pivot coordinates times the echelon basis, in one
    matmul_mod.
    """
    out = np.asarray(mat, dtype=np.int64) % sub.p
    if sub.pivots:
        out = (out - matmul_mod(out[:, sub.pivots], sub.rows, sub.p)) % sub.p
    return out


def subspace_contains(sub, x):
    return not reduce_rows(sub, [subspace_vector(sub, x)]).any()


def subspace_from_elements(n, k, p, elems):
    """The Subspace spanned by grade-k elements, reduced by reference_rref."""
    sub = Subspace(n, k, p, None, None)
    rows, pivots = reference_rref([subspace_vector(sub, x) for x in elems], len(sub.subsets), p)
    sub.rows = np.array(rows, dtype=np.int64).reshape(-1, len(sub.subsets))
    sub.pivots = pivots
    return sub


def reference_circuits(arr, max_size, p):
    """Circuits of size 3..max_size: each dependent set containing no smaller one.

    A superset scan over dependent_sets; the twin of arrangement.circuits.
    """
    found = []
    for S in dependent_sets(arr, max_size, p):
        if not any(set(S).issuperset(c) for c in found):
            found.append(S)
    return found


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
    return subspace_from_elements(arr.n, k, p, elems)


def reference_differentials(cx, pt):
    """d_0..d_up_to of the complex cx at pt, one wedge per coset basis subset.

    Row s of d_k is the element pt ^ e_s as a vector of grade k+1, reduced
    mod I_{k+1}.  The twin of AomotoComplex.differentials.
    """
    mats = []
    for k in range(cx.up_to + 1):
        target = cx.parts[k + 1]
        domain = [()] if k == 0 else cx.parts[k].coset_subsets()
        rows = [
            subspace_vector(target, pt if k == 0 else wedge(pt, ExtElement(cx.p, k, {s: 1})))
            for s in domain
        ]
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), target.ambient_dim())
        mats.append(reduce_rows(target, mat)[:, target.coset_columns()])
    return mats


def factor_decomposable(u):
    """Vectors (x, y) with x ^ y = u; ValueError when u is not decomposable.

    For u = x ^ y, row a of the antisymmetric matrix of u is x_a y - y_a x,
    so two rows a, b with u_ab != 0 span the factor plane, and their wedge
    is u_ab * u.
    """
    if u.grade != 2 or u.is_zero():
        raise ValueError("need a nonzero grade-2 element")
    p = u.p

    def row(i, scale):
        return ExtElement(p, 1, {
            (l if k == i else k,): (v if k == i else -v) * scale
            for (k, l), v in u.terms.items()
            if i in (k, l)
        })

    (a, b), c = min(u.terms.items())
    x, y = row(a, pow(c, p - 2, p)), row(b, 1)
    if wedge(x, y) != u:
        raise ValueError("element is not decomposable")
    return x, y


def reference_plane(x, y, n):
    """The Plane spanned by grade-1 elements x and y, reduced by reference_rref."""
    rows = [[v.terms.get((i,), 0) for i in range(n)] for v in (x, y)]
    red, _ = reference_rref(rows, n, x.p)
    if len(red) != 2:
        raise ValueError("vectors do not span a plane")
    return Plane(n, x.p, (tuple(red[0]), tuple(red[1])))


def reference_is_decomposable(u) -> bool:
    """Whether the grade-2 element u is a wedge of two vectors; the twin of is_decomposable.

    Every three-term Plucker relation over a < b < c < d of its support, one
    by one on Python ints, so exact for every prime.
    """
    idx = sorted({i for key in u.terms for i in key})
    get = u.terms.get
    for a, b, c, d in combinations(idx, 4):
        val = (get((a, b), 0) * get((c, d), 0) - get((a, c), 0) * get((b, d), 0)
               + get((a, d), 0) * get((b, c), 0))
        if val % u.p:
            return False
    return True


# Plucker relations in the first step of decomposable_mask; each later step
# takes four times as many, on the rows that passed every step before it.
_RELATION_CHUNK = 16


def decomposable_mask(u, n: int, q: int):
    """Which rows of u, grade-2 elements in pair coordinates mod q, are decomposable.

    The batched reference_is_decomposable: every three-term Plucker relation over
    a < b < c < d of range(n).  A relation that leaves a row's support
    vanishes there, so this is the same test, in characteristic 2 as well.
    The relations go in chunks of _RELATION_CHUNK, then four times the last
    chunk, each on the rows that passed all before it: a row is dropped only
    when a relation fails on it, so the chunks never change the mask.
    """
    terms = _plucker_terms(n)
    u = u.astype(kernel_dtype(2 * (q - 1) ** 2))
    live = np.arange(len(u))
    lo, size = 0, _RELATION_CHUNK
    while lo < terms.shape[1] and len(live):
        ab, cd, ac, bd, ad, bc = terms[:, lo : lo + size]
        w = u[live]
        rel = w[:, ab] * w[:, cd] - w[:, ac] * w[:, bd] + w[:, ad] * w[:, bc]
        live = live[~mod(rel, q).any(axis=1)]
        lo, size = lo + size, 4 * size
    mask = np.zeros(len(u), dtype=bool)
    mask[live] = True
    return mask


def reference_decomposable_planes(arr, q):
    """The planes of decomposables_in_I2_bruteforce by the element route.

    Every point of P(I_2) is a candidate, as in an exhaustive scan.  Each
    candidate that passes decomposable_mask becomes an ExtElement,
    is tested by reference_is_decomposable, factored by factor_decomposable and
    reduced by reference_plane.
    """
    sub = os_ideal_part(arr, 2, q)
    basis = np.array(sub.rows, dtype=np.int64).reshape(sub.dim(), sub.ambient_dim())
    planes = []
    for coeffs in projective_points(q, sub.dim()):
        u = matmul_mod(coeffs, basis, q)
        for row in u[decomposable_mask(u, arr.n, q)].tolist():
            elem = ExtElement(q, 2, dict(zip(sub.subsets, row)))
            if reference_is_decomposable(elem):
                planes.append(reference_plane(*factor_decomposable(elem), arr.n))
    return sorted(planes, key=lambda pl: pl.basis)


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


def r1_ideal(arr, p):
    """The ring and the pulled-back Plucker quadrics that r1_hilbert hands to buchberger."""
    i2 = os_ideal_part(arr, 2, p)
    ring = PolyRing(i2.dim(), p)
    return ring, plucker_ideal(ring, i2.rows)


def reference_plucker_ideal(ring, coords=None):
    """The nonzero three-term quadrics, one per 4-subset, by Poly arithmetic.

    coords maps each pair (i, j), i < j < n, to the polynomial standing for
    the Plucker coordinate w_ij; by default these are the variables of a
    PluckerRing.  The twin of grobner.plucker_ideal, which also leaves out
    the multiples of earlier quadrics (first_of_each_multiple).
    """
    if coords is None:
        coords = {pr: ring.var(k) for k, pr in enumerate(ring.pairs)}
    n = 1 + max(j for _, j in coords)
    out = []
    for a, b, c, d in combinations(range(n), 4):
        q = (
            coords[a, b] * coords[c, d]
            - coords[a, c] * coords[b, d]
            + coords[a, d] * coords[b, c]
        )
        if not q.is_zero():
            out.append(q)
    return out


def first_of_each_multiple(polys):
    """polys without those that are a nonzero multiple of an earlier one, in order."""
    seen, out = set(), []
    for f in polys:
        key = frozenset(f.monic().terms.items())
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def run_python(code: str):
    """code run in a fresh interpreter on this checkout's resgrass: its CompletedProcess, text mode."""
    import resgrass

    env = {**os.environ, "PYTHONPATH": str(Path(resgrass.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)


def random_simple_realization(rng, p):
    """A random 3x5 .. 4x7 matrix with small entries whose columns are simple mod p."""
    while True:
        rows, cols = rng.choice(((3, 5), (3, 6), (4, 6), (4, 7)))
        mat = [[rng.randrange(-1, 3) for _ in range(cols)] for _ in range(rows)]
        try:
            return from_matrix(mat, name="random", p=p)
        except InputError:
            continue


def lcm(ord_, a, b):
    """lcm of two packed grevlex monomials, one variable at a time."""
    if a == b:
        return a
    key = 0
    deg = 0
    for i in range(ord_.nvars):
        da = (a >> (_W * i)) & 0xFF
        db = (b >> (_W * i)) & 0xFF
        d = da if da < db else db
        key |= d << (_W * i)
        deg += _CAP - d
    return key | (deg << (_W * ord_.nvars))


def rand_poly(ring, rng, deg, nterms=3, homogeneous=False):
    """nterms random terms of degree deg, or of degree 0..deg each."""
    terms = {}
    for _ in range(nterms):
        d = deg if homogeneous else rng.randrange(deg + 1)
        key = ring.ord.pack_combo([rng.randrange(ring.nvars) for _ in range(d)])
        terms[key] = rng.randrange(1, ring.p)
    return Poly(ring, terms)


def from_exp_terms(ring, terms: dict):
    """The polynomial of ring with the given exponent tuple -> coefficient terms."""
    return Poly(ring, {ring.ord.pack(e): c for e, c in terms.items()})


def monomial_ideal(nvars: int, exps):
    """The monomial ideal of exponent tuples exps: leading_ideal of buchberger over the monomials."""
    ring = PolyRing(nvars)
    return leading_ideal(buchberger([from_exp_terms(ring, {e: 1}) for e in exps], ring=ring))


def evaluate(f, vals) -> int:
    """f at the point vals, mod p."""
    p = f.ring.p
    total = 0
    for key, c in f.terms.items():
        for i, e in enumerate(f.ring.ord.unpack(key)):
            c = c * pow(vals[i], e, p) % p
        total += c
    return total % p


def basis_digest(gb):
    """sha256 of the terms of a basis: each generator's sorted, then the generators sorted."""
    terms = sorted(tuple(sorted(g.terms.items())) for g in gb)
    return hashlib.sha256(repr(terms).encode()).hexdigest()


def numerator_digest(gb):
    """sha256 of the Hilbert numerator's coefficient list of a basis's lead ideal."""
    return hashlib.sha256(repr(hilbert_numerator(leading_ideal(gb))).encode()).hexdigest()


def pair_coords(pt, ring):
    """The dense coordinates of a grade-2 point over ring.pairs."""
    return tuple(pt.terms.get(pr, 0) for pr in ring.pairs)


def pair_var(ring, i: int, j: int):
    """The variable w_ij of a PluckerRing, in either order of i and j."""
    return ring.var(ring.pairs.index((min(i, j), max(i, j))))


def hilbert_function_values(numer, nvars: int, upto: int):
    """Hilbert function values dim (S/I)_d for d = 0..upto, by series expansion."""
    vals = list(numer[: upto + 1]) + [0] * max(0, upto + 1 - len(numer))
    for _ in range(nvars):
        for i in range(1, upto + 1):
            vals[i] += vals[i - 1]
    return vals


def spoly(f, g):
    ord_ = f.ring.ord
    lf, lg = f.lead_key(), g.lead_key()
    l = lcm(ord_, lf, lg)
    mf = from_exp_terms(f.ring, {ord_.unpack(ord_.quo(l, lf)): g.lead_coeff()})
    mg = from_exp_terms(f.ring, {ord_.unpack(ord_.quo(l, lg)): f.lead_coeff()})
    return mf * f - mg * g


def permute_vars(f, perm):
    """f with variable perm[i] put in place of variable i, in the same ring."""
    unpack = f.ring.ord.unpack
    return from_exp_terms(f.ring, 
        {tuple(unpack(k)[i] for i in perm): c for k, c in f.terms.items()}
    )


class _DivisorIndex:
    """First basis element whose lead divides a query monomial, with caching.

    The negative cache stores how many elements have been checked, so
    appending new elements never requires invalidation.
    """

    def __init__(self, ord_, leads=()):
        self.ord = ord_
        self.leads = list(leads)
        self._pos: dict = {}
        self._neg: dict = {}

    def append(self, lead: int):
        self.leads.append(lead)

    def find(self, m: int):
        gi = self._pos.get(m)
        if gi is not None:
            return gi
        leads = self.leads
        divides = self.ord.divides
        for gi in range(self._neg.get(m, 0), len(leads)):
            if divides(leads[gi], m):
                self._pos[m] = gi
                return gi
        self._neg[m] = len(leads)
        return None


def _nf_terms(terms, basis_terms, index: _DivisorIndex, lcinvs, ord_, p: int):
    """Full normal form of a term dict against an indexed basis."""
    work = {k: c % p for k, c in terms.items() if c % p}
    out: dict = {}
    heap = [-k for k in work]
    heapify(heap)
    mul = ord_.mul
    quo = ord_.quo
    while heap:
        k = -heappop(heap)
        c = work.pop(k, 0) % p
        if not c:
            continue
        gi = index.find(k)
        if gi is None:
            out[k] = c
            continue
        q = quo(k, index.leads[gi])
        f = c * lcinvs[gi] % p
        for kg, cg in basis_terms[gi]:
            kk = mul(q, kg)
            if kk == k:
                continue
            cur = work.get(kk)
            if cur is None:
                work[kk] = -f * cg
                heappush(heap, -kk)
            else:
                work[kk] = cur - f * cg
    return out


def reference_normal_form(f, gens):
    """Remainder of f on division by gens, term by term through a heap.

    Each monomial is reduced by the first of gens whose lead divides it;
    it takes any prime.  The twin of grobner.normal_form.
    """
    gens = [g for g in gens if g.terms]
    ring = f.ring
    if not gens:
        return f
    index = _DivisorIndex(ring.ord, [g.lead_key() for g in gens])
    basis_terms = [list(g.terms.items()) for g in gens]
    lcinvs = [pow(g.lead_coeff(), ring.p - 2, ring.p) for g in gens]
    return Poly(ring, _nf_terms(f.terms, basis_terms, index, lcinvs, ring.ord, ring.p))


class ReferencePairSet:
    """Gebauer-Moeller managed S-pair queue on packed ints, popping smallest lcm first.

    A pure-Python reference for the numpy pair set of the F4 engine,
    which must pop the same (i, j, lcm) sequence and keep the same counters.
    """

    def __init__(self, ord_):
        self.ord = ord_
        self.leads: list[int] = []
        self.heap: list = []
        self.created = self.pruned_lcm = self.pruned_coprime = 0

    def add_element(self, lead: int):
        ord_ = self.ord
        t = len(self.leads)
        cand = [(lcm(ord_, self.leads[i], lead), i) for i in range(t)]
        self.created += t
        keep = []
        for li, i in cand:
            if any(lj != li and ord_.divides(lj, li) for lj, _ in cand):
                self.pruned_lcm += 1
                continue
            keep.append((li, i))
        by_lcm: dict = {}
        for li, i in keep:
            by_lcm.setdefault(li, []).append(i)
        for li in sorted(by_lcm):
            group = by_lcm[li]
            if any(li == ord_.mul(self.leads[i], lead) for i in group):
                self.pruned_coprime += len(group)
                continue  # coprime leads: that S-poly reduces to zero
            self.pruned_lcm += len(group) - 1
            heappush(self.heap, (li, min(group), t))
        self.leads.append(lead)

    def pop(self):
        if not self.heap:
            return None
        li, i, j = heappop(self.heap)
        return i, j, li


def reference_interreduce(polys):
    """Reduced basis from a Groebner basis: minimal leads, reduced tails."""
    polys = sorted((g for g in polys if g.terms), key=lambda g: g.lead_key())
    if not polys:
        return []
    ring = polys[0].ring
    ord_, p = ring.ord, ring.p
    kept = []
    for g in polys:
        lk = g.lead_key()
        if any(ord_.divides(h.lead_key(), lk) for h in kept):
            continue
        kept.append(g.monic())
    index = _DivisorIndex(ord_, [g.lead_key() for g in kept])
    lcinvs = [1] * len(kept)
    while True:
        changed = False
        terms_list = [list(g.terms.items()) for g in kept]
        for i, g in enumerate(kept):
            lk = g.lead_key()
            tail = {k: c for k, c in g.terms.items() if k != lk}
            red = _nf_terms(tail, terms_list, index, lcinvs, ord_, p)
            red[lk] = 1
            if red != g.terms:
                kept[i] = Poly(ring, red)
                changed = True
        if not changed:
            return kept


def reference_buchberger(polys):
    """Groebner basis (not reduced) by a Buchberger loop on term dicts.

    It applies the pair criteria of the F4 engine through
    ReferencePairSet but reduces term by term in Python ints, so it takes
    any input and any prime.
    """
    ring = polys[0].ring
    ord_, p = ring.ord, ring.p
    basis_terms: list = []
    index = _DivisorIndex(ord_)
    lcinvs: list = []
    pairs = ReferencePairSet(ord_)

    def absorb(terms):
        r = _nf_terms(terms, basis_terms, index, lcinvs, ord_, p)
        if not r:
            return
        lead = max(r)
        inv = pow(r[lead], p - 2, p)
        basis_terms.append([(k, c * inv % p) for k, c in r.items()])
        index.append(lead)
        lcinvs.append(1)
        pairs.add_element(lead)

    for g in sorted(polys, key=lambda g: (g.degree(), g.lead_key())):
        absorb(g.terms)
    while (pr := pairs.pop()) is not None:
        i, j, l = pr
        li, lj = pairs.leads[i], pairs.leads[j]
        qi, qj = ord_.quo(l, li), ord_.quo(l, lj)
        s: dict = {}
        for k, c in basis_terms[i]:
            kk = ord_.mul(qi, k)
            s[kk] = s.get(kk, 0) + c
        for k, c in basis_terms[j]:
            kk = ord_.mul(qj, k)
            s[kk] = s.get(kk, 0) - c
        absorb(s)
    return [Poly(ring, dict(t)) for t in basis_terms]
