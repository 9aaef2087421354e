"""The census of components named from the flats, and the engine stop it certifies.

The census is a lower bound on R^1's Hilbert polynomial and a partial
basis's lead ideal an upper bound; r1 stops the engine when they agree.  A
stop must never change the HP, and where the census falls short the run
must be the one without the hook, counters and all.
"""

import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

from resgrass import resonance
from resgrass.arrangement import Arrangement, check_simple, fixture, flats_of, from_matrix
from resgrass.components import Census, _nets, _ruled_out, census, decode_hp, grassmannian_hp
from resgrass.errors import InputError
from resgrass.exterior import os_ideal_part
from resgrass.field import batch_rank, mod
from resgrass.grobner import _CAP, _digits, _ints, buchberger
from resgrass.hilbert import HilbertPoly, format_hp, hilbert_numerator, hilbert_polynomial
from resgrass.hilbert import MonomialIdeal, leading_ideal
from resgrass.resonance import r1_hilbert

from cases import braid, ceva, ceva3, graphic, monomial_ideal, r1_ideal, random_simple_realization
from test_known_answers import cliques, seeded_graphs

FANO = Arrangement(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
                   None, "Fano")
NON_FANO = Arrangement(7, FANO.flats[:-1], None, "non-Fano")
COUNTERS = ("created", "pruned_lcm", "pruned_coprime", "reductions", "zero_reductions")
DEGREE_COUNTERS = ("rows", "zero_rows", "monomials", "nonpivot", "new")


@pytest.mark.parametrize("k", range(9))
def test_grassmannian_hp_matches_the_hilbert_function(k):
    hp = grassmannian_hp(k)
    for d in range(11):
        want = comb(k + d - 1, d) * comb(k + d - 2, d) // (d + 1) if k >= 2 else 0
        assert hp.evaluate(d) == want, (k, d)
    assert hp.degree() == (2 * (k - 2) if k >= 2 else -1)


def test_grassmannian_hp_of_small_cases():
    # a point, P^2, and the Plucker quadric in P^5
    assert [format_hp(grassmannian_hp(k)) for k in (1, 2, 3, 4)] == [
        "0", "1*P_0", "1*P_2", "-1*P_3 + 2*P_4"]


def test_decode_peels_sub_grassmannians():
    def hp(*parts):
        coeffs = [0] * 13
        for k, c in parts:
            for i, a in enumerate(grassmannian_hp(k).coeffs):
                coeffs[i] += c * a
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return HilbertPoly(tuple(coeffs))

    assert decode_hp(hp((2, 35))) == {2: 35}
    assert decode_hp(hp((2, 76), (4, 3))) == {2: 76, 4: 3}
    assert decode_hp(hp((2, 54), (3, 10), (7, 2))) == {2: 54, 3: 10, 7: 2}
    assert decode_hp(HilbertPoly(())) == {}
    # an odd top degree, a P_1 left over, a negative or a fractional count
    for coeffs in ((6, 1), (55, -5, 14), (1, 0, -1), (0, 0, 0, -1, 1)):
        assert decode_hp(HilbertPoly(coeffs)) is None, coeffs


def counts(arr, p=31991):
    s = census(os_ideal_part(arr, 2, p)).summary()
    return s["components"], s["explained"]


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_braid_census(ell):
    # C(ell+1, 3) local components and C(ell+1, 4) (3,2)-nets, all planes
    arr = fixture("A3") if ell == 3 else braid(ell)
    local, net = comb(ell + 1, 3), comb(ell + 1, 4)
    assert counts(arr) == ({"local": {"2": local}, "net": {"2": net}}, f"{local + net}*P_0")


@pytest.mark.parametrize(
    "arr, p, components, explained",
    [
        (fixture("Hessian"), 31991, {"local": {"3": 9}, "net": {"2": 54}}, "54*P_0 + 9*P_2"),
        (ceva3(), 31991, {"local": {"2": 12}, "net": {}}, "12*P_0"),
        (FANO, 3, {"local": {"2": 7}, "net": {"2": 7}}, "14*P_0"),
        (FANO, 31991, {"local": {"2": 7}, "net": {"2": 7}}, "14*P_0"),
        (NON_FANO, 3, {"local": {"2": 6}, "net": {"2": 3}}, "9*P_0"),
        (NON_FANO, 31991, {"local": {"2": 6}, "net": {"2": 3}}, "9*P_0"),
    ],
    ids=["Hessian", "Ceva(3)", "Fano-3", "Fano-31991", "non-Fano-3", "non-Fano-31991"],
)
def test_census_of_flats(arr, p, components, explained):
    # the Hessian's (4,3)-net and Ceva(3)'s (3,3)-nets are not (3,2)-nets,
    # so the census falls short there
    assert counts(arr, p) == (components, explained)


def test_graphic_census_counts_triangles_and_k4s():
    for v, edges in seeded_graphs():
        comps, _ = counts(graphic(v, edges))
        k3, k4 = cliques(edges, 3), cliques(edges, 4)
        assert comps == {"local": {"2": k3} if k3 else {}, "net": {"2": k4} if k4 else {}}


def test_census_names_only_the_flats_of_i2s_triples():
    # I_2 of three of A3's four triple points: the fourth flat's local
    # component and the net through all four are not named
    a3 = fixture("A3")
    three = Arrangement(6, a3.flats[1:], None, "three")
    assert counts(three) == ({"local": {"2": 3}, "net": {}}, "3*P_0")
    # columns independent over the rationals, but 0, 1 and 2 dependent over
    # F_3: read at 31991 the realization has no flat, run at 3 it has one
    arr = from_matrix([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 3, 1]], name="F3-triple")
    assert arr.flats == () and flats_of(os_ideal_part(arr, 2, 3).circuits) == ((0, 1, 2),)
    assert counts(arr) == ({"local": {}, "net": {}}, "0")
    assert counts(arr, 3) == ({"local": {"2": 1}, "net": {}}, "1*P_0")


def named_components(i2):
    """(kind, dimension, basis rows mod p) of the components the flats of I_2's triples name."""
    n, p, out = i2.n, i2.p, []
    flats = flats_of(i2.circuits)
    for f in flats:
        basis = np.zeros((len(f) - 1, n), np.int64)
        basis[np.arange(len(f) - 1), f[1:]] = 1
        basis[:, f[0]] = p - 1
        out.append((0, len(f) - 1, basis))
    inc = np.zeros((len(flats), n), bool)
    for r, f in enumerate(flats):
        inc[r, list(f)] = True
    for h in _nets(inc).tolist():
        basis = np.zeros((2, n), np.int64)
        basis[0, h[:2]] = basis[1, h[2:4]] = 1
        basis[:, h[4:]] = p - 1
        out.append((1, 2, basis))
    return out


def wedges_outside(i2, comps) -> int:
    """How many wedges of two basis vectors of a component leave I_2, by one batched reduction."""
    a, b = np.triu_indices(i2.n, 1)
    rows = [u[a] * v[b] - u[b] * v[a] for _, _, basis in comps for u, v in combinations(basis, 2)]
    w = mod(np.array(rows, np.int64).reshape(-1, len(a)), i2.p)
    return int(mod(w[:, i2.pivots] @ i2.rows - w, i2.p).any(axis=1).sum())


def shared_planes(comps, p: int) -> int:
    """How many pairs of components meet in dimension >= 2, by the rank of their stacked bases."""
    if len(comps) < 2:
        return 0
    top = max(d for _, d, _ in comps)
    pad = np.zeros((len(comps), top, comps[0][2].shape[1]), np.int64)
    for r, (_, d, basis) in enumerate(comps):
        pad[r, :d] = basis
    dims = np.array([d for _, d, _ in comps])
    i, j = np.triu_indices(len(comps), 1)
    ranks = batch_rank(np.concatenate([pad[i], pad[j]], axis=1), p)
    return int((ranks <= dims[i] + dims[j] - 2).sum())


def read_at_31991_simple_at(rng, p):
    """A seeded realization read at 31991 whose columns are simple over F_p too."""
    while True:
        arr = random_simple_realization(rng, 31991)
        try:
            check_simple(arr.columns(), p)
            return arr
        except InputError:
            continue


def census_inputs():
    """(arrangement, prime) pairs: fixtures, families and seeded inputs, some read at 31991."""
    rng = random.Random(33)
    ceva5 = ceva(5, 31)
    inputs = [(fixture("A3"), p) for p in (2, 3, 5, 7, 31991)]
    inputs += [(braid(ell), 31991) for ell in (4, 5, 6)]
    inputs += [(fixture("Hessian"), p) for p in (2, 3, 5, 31991)]
    inputs += [(arr, p) for arr in (ceva3(), FANO, NON_FANO) for p in (2, 3, 31991)]
    inputs += [(ceva5, 31), (Arrangement(15, ceva5.flats, None, "Ceva(5)"), 31991)]
    for p in (2, 3, 5, 7, 31991):
        inputs += [(random_simple_realization(rng, p), p) for _ in range(4)]
    inputs += [(read_at_31991_simple_at(rng, p), p) for p in (2, 3) for _ in range(8)]
    for seed in range(10):
        r, flats = random.Random(seed), []
        n = r.randint(6, 9)
        for _ in range(r.randint(2, 8)):
            f = tuple(sorted(r.sample(range(n), r.choice((3, 3, 4)))))
            if all(len(set(f) & set(g)) <= 1 for g in flats):
                flats.append(f)
        inputs.append((Arrangement(n, tuple(sorted(flats)), None, f"flats{seed}"), 31991))
    return inputs


def test_named_components_lie_in_i2_and_share_no_plane():
    # the checks the census leaves to the theorems: every wedge of a named
    # component lies in I_2, and no two components share a 2-plane
    t0, named, moved = time.perf_counter(), 0, 0
    for arr, p in census_inputs():
        i2 = os_ideal_part(arr, 2, p)
        found, comps = census(i2), named_components(i2)
        assert sorted(zip(found.kinds.tolist(), found.dims.tolist())) == sorted(
            (k, d) for k, d, _ in comps), (arr.name, p)
        assert wedges_outside(i2, comps) == 0, (arr.name, p)
        assert shared_planes(comps, p) == 0, (arr.name, p)
        named += len(comps)
        moved += arr.matrix is not None and flats_of(i2.circuits) != arr.flats
    # some realizations read at 31991 have other flats at the run's prime
    assert named > 500 and moved >= 2, (named, moved)
    assert time.perf_counter() - t0 < 2.0


def test_realizations_read_at_another_prime_keep_the_hp():
    # the census names the flats over the run's prime, so such runs may
    # stop; each keeps the HP of the run without the hook
    rng, stopped = random.Random(34), 0
    for p in (2, 3):
        for _ in range(12):
            arr = read_at_31991_simple_at(rng, p)
            rep = r1_hilbert(arr, p)
            assert rep.hilbert == reference_run(arr, p)[0], (arr.matrix, p)
            stopped += "stopped_at" in rep.engine
    assert stopped >= 8, stopped


def test_ruled_out_never_refuses_the_leads_own_hp():
    # the counts behind _ruled_out are bounds, so a lead ideal is never
    # ruled out against its own HP, whatever its dimension and degree
    rng = random.Random(32)
    seen = set()
    for _ in range(150):
        nvars = rng.randint(3, 7)
        exps = set()
        for _ in range(rng.randint(1, 9)):
            e = [0] * nvars
            for v in rng.sample(range(nvars), rng.randint(1, 3)):
                e[v] = rng.randint(1, 2)
            exps.add(tuple(e))
        mi = monomial_ideal(nvars, sorted(exps))
        hp = hilbert_polynomial(hilbert_numerator(mi), nvars)
        keys = [k for k, _ in mi._gens]
        assert not _ruled_out(_digits(keys, nvars) != _CAP, hp), (nvars, sorted(exps))
        seen.add(hp.degree() + 1)
    assert {1, 2, 3, 4} <= seen


@pytest.mark.parametrize("p, checks", [(2, 0), (3, 1)])
def test_ruled_out_is_exact_on_the_fano_plane(p, checks):
    # the census explains 14*P_0 (7 local components and 7 nets), so d = 1,
    # and an open pair of variables exists exactly when the leads' HP has
    # degree >= 1.  Over F_2 the HP after every degree is 7*P_0 + 1*P_2, and
    # over F_3 it is 10*P_0 + 1*P_1 after degree 3: all ruled out, so only
    # F_3's last degree, whose HP is the census's, needs a numerator
    ring, gens = r1_ideal(FANO, p)
    explained = census(os_ideal_part(FANO, 2, p)).explained
    assert format_hp(explained) == "14*P_0"
    seen = []
    buchberger(gens, ring=ring, stop=lambda leads: seen.append(leads) or False)
    numerators = 0  # the ones the stop hook computes: up to the degree whose HP is explained
    for leads in seen:
        hp = hilbert_polynomial(hilbert_numerator(MonomialIdeal(ring.ord, _ints(leads), leads)),
                                ring.nvars)
        ruled = _ruled_out(leads != _CAP, explained)
        assert ruled == (hp.degree() >= 1), (p, len(leads), format_hp(hp))
        if not ruled:
            numerators += 1
            if hp == explained:
                break
    assert numerators == checks
    assert r1_hilbert(FANO, p).census["checks"] == checks


def reference_run(arr, p):
    """(HP, engine stats, Hilbert calls and hits) of r1's ideal run through buchberger with no stop hook."""
    ring, gens = r1_ideal(arr, p)
    gb = buchberger(gens, ring=ring)
    count = {}
    hp = hilbert_polynomial(hilbert_numerator(leading_ideal(gb), count), ring.nvars)
    return format_hp(hp), gb.stats, count


def engine_counts(stats):
    return ({k: stats[k] for k in COUNTERS},
            {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in stats["degrees"].items()})


def without_one(real):
    """census, with its first component left out of the HP it explains."""
    def short(*args):
        found = real(*args)
        coeffs = list(found.explained.coeffs)
        coeffs[2 * (int(found.dims[0]) - 2)] -= 1
        return Census(found.kinds[1:], found.dims[1:], HilbertPoly(tuple(coeffs)))
    return short


@pytest.mark.parametrize(
    "arr, p",
    [(fixture("Hessian"), 31991), (fixture("Hessian"), 3), (ceva3(), 31991), (FANO, 2), (braid(5), 31991)],
    ids=["Hessian", "Hessian-p3", "Ceva(3)", "Fano-p2", "A5-less-one"],
)
def test_a_short_census_leaves_the_run_as_it_was(arr, p, monkeypatch):
    if arr.name == "A5":
        monkeypatch.setattr(resonance, "census", without_one(census))
    rep = r1_hilbert(arr, p)
    hp, stats, count = reference_run(arr, p)
    assert "stopped_at" not in rep.engine
    assert rep.hilbert == hp
    assert engine_counts(rep.engine) == engine_counts(stats)
    assert (rep.engine["hilbert_calls"], rep.engine["hilbert_hits"]) == (count["calls"], count["hits"])


@pytest.mark.parametrize(
    "arr, p, hilbert, stopped_at",
    [(fixture("A3"), 31991, "5*P_0", 3), (braid(4), 3, "15*P_0", 3), (FANO, 3, "14*P_0", 4),
     (NON_FANO, 31991, "9*P_0", 3)],
    ids=["A3", "A4-p3", "Fano-p3", "non-Fano"],
)
def test_a_full_census_stops_the_run_and_keeps_the_hp(arr, p, hilbert, stopped_at):
    rep = r1_hilbert(arr, p)
    hp, stats, count = reference_run(arr, p)
    assert rep.hilbert == hp == hilbert
    assert rep.engine["stopped_at"] == stopped_at
    assert max(rep.engine["degrees"]) == stopped_at < max(stats["degrees"])
    # the stopped run forms fewer pairs, and its numerator is the full run's
    assert rep.engine["created"] < stats["created"]
    assert (rep.engine["hilbert_calls"], rep.engine["hilbert_hits"]) == (count["calls"], count["hits"])
    assert rep.census["checks"] >= 1 and rep.decode == {2: int(hilbert.split("*")[0])}


def test_buchberger_without_a_hook_never_stops():
    ring, gens = r1_ideal(fixture("A3"), 31991)
    calls = []
    gb = buchberger(gens, ring=ring, stop=lambda leads: calls.append(len(leads)) or False)
    assert "stopped_at" not in gb.stats and sorted(gb.stats["degrees"]) == [2, 3, 4]
    # the hook sees every lead after each degree
    assert calls == [5, 6, 6]
    assert buchberger(gens, ring=ring).stats.keys() == gb.stats.keys()
    gb = buchberger(gens, ring=ring, stop=lambda leads: len(leads) == 6)
    assert gb.stats["stopped_at"] == 3 and len(gb) == 6


def test_stops_never_change_the_hp_on_random_inputs():
    # pencils, seeded realizations at five primes and seeded flats of 3 and 4
    # hyperplanes meeting pairwise in at most one: r1, stopped or not, gives
    # the HP of the run without the hook
    rng = random.Random(7)
    inputs = [(Arrangement(n, (tuple(range(n)),), None, f"pencil{n}"), 31991) for n in range(3, 9)]
    inputs += [(random_simple_realization(rng, p), p) for p in (2, 3, 5, 7, 31991) for _ in range(12)]
    for seed in range(20):
        r, flats = random.Random(seed), []
        n = r.randint(6, 9)
        for _ in range(r.randint(2, 8)):
            f = tuple(sorted(r.sample(range(n), r.choice((3, 3, 4)))))
            if all(len(set(f) & set(g)) <= 1 for g in flats):
                flats.append(f)
        inputs += [(Arrangement(n, tuple(sorted(flats)), None, f"flats{seed}"), p) for p in (2, 31991)]
    stopped = 0
    for arr, p in inputs:
        rep = r1_hilbert(arr, p)
        assert rep.hilbert == reference_run(arr, p)[0], (arr, p)
        stopped += "stopped_at" in rep.engine
    assert stopped >= len(inputs) // 3, (stopped, len(inputs))
