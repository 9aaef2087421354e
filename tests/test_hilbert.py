import random
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

import resgrass.hilbert as hilbert
from resgrass.arrangement import fixture
from resgrass.grobner import _CAP, GroebnerBasis, PluckerRing, PolyRing, _ints, buchberger
from resgrass.grobner import plucker_ideal
from resgrass.hilbert import (
    HilbertPoly,
    MonomialIdeal,
    constant_hp,
    format_hp,
    hilbert_numerator,
    hilbert_polynomial,
    leading_ideal,
)

from cases import (
    braid,
    from_exp_terms,
    hilbert_function_values,
    monomial_ideal,
    permute_vars,
    r1_ideal,
    r1_seen_by_stop,
)


def brute_hf(mi, d):
    """Count degree-d standard monomials by enumeration."""
    count = 0
    for combo in combinations_with_replacement(range(mi.nvars), d):
        exps = [0] * mi.nvars
        for v in combo:
            exps[v] += 1
        if not mi.contains(exps):
            count += 1
    return count


def test_minimalization():
    mi = monomial_ideal(3, [(2, 0, 0), (2, 1, 0), (0, 1, 1), (0, 1, 1)])
    assert mi.gens == ((0, 1, 1), (2, 0, 0))
    assert mi.contains((2, 5, 0))
    assert not mi.contains((1, 1, 0))


def test_numerator_hand_example():
    # <x^2, xy>: 1 - 2t^2 + t^3
    mi = monomial_ideal(2, [(2, 0), (1, 1)])
    assert hilbert_numerator(mi) == [1, 0, -2, 1]


def test_numerator_empty_and_unit():
    assert hilbert_numerator(monomial_ideal(3, [])) == [1]
    assert hilbert_numerator(monomial_ideal(3, [(0, 0, 0)])) == []
    assert format_hp(hilbert_polynomial([0], 3)) == "0"


def test_full_polynomial_ring():
    hp = hilbert_polynomial(hilbert_numerator(monomial_ideal(3, [])), 3)
    assert hp.coeffs == (0, 0, 1)
    assert format_hp(hp) == "1*P_2"


def test_points_have_constant_polynomial():
    # five points on a line: ideal (x^5) in k[x, y], projectively
    hp = hilbert_polynomial(hilbert_numerator(monomial_ideal(2, [(5, 0)])), 2)
    assert format_hp(hp) == "5*P_0"


def test_artinian_quotient_has_zero_polynomial():
    hp = hilbert_polynomial(hilbert_numerator(monomial_ideal(1, [(3,)])), 1)
    assert format_hp(hp) == "0"


def test_twisted_cubic_initial_ideal():
    # <y^2, yz, z^2> in 4 variables: HF(d) = 3d + 1
    mi = monomial_ideal(4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)])
    numer = hilbert_numerator(mi)
    assert hilbert_function_values(numer, 4, 5) == [1, 4, 7, 10, 13, 16]
    hp = hilbert_polynomial(numer, 4)
    assert format_hp(hp) == "-2*P_0 + 3*P_1"
    assert [hp.evaluate(d) for d in range(4)] == [1, 4, 7, 10]


def test_formatting():
    assert format_hp(HilbertPoly(())) == "0"
    assert format_hp(HilbertPoly((5,))) == "5*P_0"
    assert format_hp(HilbertPoly((54, 0, 10))) == "54*P_0 + 10*P_2"


def colon_branches(ord_, gens):
    """The branches the colon step takes on minimal (key, mask) gens, by the pivot rule.

    "variable": a quotient g/x is one variable; "lowered": g/x lost x and has
    degree >= 2; "power": x^2 divides g; the "-drops" forms when such a
    quotient divides a generator without x.
    """
    mixed = [m for _, m in gens if m.bit_count() > 1]
    if not mixed:
        return set()
    counts = {v: sum(m >> v & 1 for m in mixed) for v in range(ord_.nvars)}
    x = max(sorted(counts), key=counts.get)
    rest = [k for k, m in gens if not m >> x & 1]
    seen = set()
    for k, m in gens:
        if m >> x & 1:
            q = ord_.quo(k, ord_.pack_combo((x,)))
            kind = ("power" if ord_.exponent(k, x) > 1
                    else "variable" if ord_.degree(q) == 1 else "lowered")
            seen.add(kind)
            if kind != "power" and any(ord_.divides(q, g) for g in rest):
                seen.add(kind + "-drops")
    return seen


def test_random_ideals_against_counting_oracle(monkeypatch):
    seen = set()
    step = hilbert._numer

    def spy(gens, ord_, memo, count):
        seen.update(colon_branches(ord_, gens))
        return step(gens, ord_, memo, count)

    monkeypatch.setattr(hilbert, "_numer", spy)
    rng = random.Random(11)
    ideals = []
    # (ideals, variables, generators, steps of one generator's degree); the
    # wider shapes reach the colon on a pivot of exponent 0, 1 and above
    for count, nvars_to, gens_to, deg_to in ((15, 5, 4, 4), (40, 6, 7, 5)):
        for _ in range(count):
            nvars = rng.randrange(2, nvars_to)
            gens = []
            for _ in range(rng.randrange(1, gens_to)):
                exps = [0] * nvars
                for _ in range(rng.randrange(1, deg_to)):
                    exps[rng.randrange(nvars)] += 1
                gens.append(tuple(exps))
            ideals.append((nvars, gens))
    # up to three variables to a generator, each to a power up to 3: these
    # reach a quotient of degree 2 or more that drops a generator
    for _ in range(20):
        nvars = rng.randrange(3, 7)
        gens = []
        for _ in range(rng.randrange(2, 9)):
            exps = [0] * nvars
            for v in rng.sample(range(nvars), rng.randrange(1, 4)):
                exps[v] = rng.randrange(1, 4)
            gens.append(tuple(exps))
        ideals.append((nvars, gens))
    for nvars, gens in ideals:
        mi = monomial_ideal(nvars, gens)
        numer = hilbert_numerator(mi)
        vals = hilbert_function_values(numer, nvars, 7)
        assert vals == [brute_hf(mi, d) for d in range(8)]
        # polynomial agrees with the function for large degrees
        hp = hilbert_polynomial(numer, nvars)
        assert not hp.coeffs or hp.coeffs[-1]
        start = max(len(numer) - 1, 0)
        for d in range(start, 8):
            assert hp.evaluate(d) == vals[d]
    assert seen == {"variable", "variable-drops", "lowered", "lowered-drops", "power"}


def lead_digits(mi):
    """The digit rows of a monomial ideal's minimal generators, as the engine hands them on."""
    exps = np.array(mi.gens, np.int64).reshape(-1, mi.nvars)
    return (_CAP - exps).astype(np.uint8)


def test_constant_hp_on_a_pure_power_off_its_axis():
    # (x_1^2) in k[x_0, x_1]: a double point on the axis of x_0, so W_0 keeps x_1
    assert constant_hp(lead_digits(monomial_ideal(2, [(0, 2)]))) == 2
    assert constant_hp(lead_digits(monomial_ideal(2, [(5, 0)]))) == 5
    assert constant_hp(lead_digits(monomial_ideal(3, [(0, 0, 0)]))) == 0  # the unit ideal
    assert constant_hp(lead_digits(monomial_ideal(1, []))) == 1
    # no lead on {x_1, x_2}: a plane, so no constant
    assert constant_hp(lead_digits(monomial_ideal(3, [(1, 0, 0)]))) is None


def test_constant_hp_against_the_numerator():
    # seeded ideals that close every pair of variables (dimension <= 1),
    # with pure powers x^k, k >= 2, degree-1 leads and mixed extras, and
    # some that leave a pair open; bound stops the count past it
    rng = random.Random(36)
    kinds = {"pure power": 0, "degree 1": 0, "open pair": 0, "past bound": 0}
    for _ in range(400):
        nvars = rng.randrange(1, 7)
        gens = []
        for v, w in combinations(range(nvars), 2):
            if rng.random() < 0.9:
                exps = [0] * nvars
                shape = rng.random()
                exps[v if shape < 0.2 else w] = rng.randrange(1, 5)
                if shape >= 0.4:
                    exps[v] = rng.randrange(0, 4)
                gens.append(tuple(exps))
        for _ in range(rng.randrange(0, 5)):
            gens.append(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)))
        mi = monomial_ideal(nvars, [g for g in gens if any(g)])
        leads = lead_digits(mi)
        hp = hilbert_polynomial(hilbert_numerator(mi), nvars)
        want = None if hp.degree() >= 1 else sum(hp.coeffs)
        assert constant_hp(leads) == want, (nvars, mi.gens)
        kinds["open pair"] += want is None
        kinds["pure power"] += any(sum(map(bool, g)) == 1 and max(g) >= 2 for g in mi.gens)
        kinds["degree 1"] += any(sum(g) == 1 for g in mi.gens)
        if want:
            bound = rng.randrange(want + 1)
            got = constant_hp(leads, bound)
            assert got == want if bound == want else bound < got <= want, (mi.gens, bound)
            kinds["past bound"] += bound < want
    assert min(kinds.values()) >= 20, kinds


def test_monomial_ideals_share_the_packing_cap():
    for gens in ([(128, 0, 0)], [(-1, 0, 0)], [(100, 28, 0)], [(1, 0, 0), (0, 64, 64)]):
        with pytest.raises(OverflowError):
            monomial_ideal(3, gens)
    assert monomial_ideal(3, [(127, 0, 0), (0, 100, 27)]).gens == ((0, 100, 27), (127, 0, 0))


@pytest.mark.parametrize("arr", [fixture("Hessian"), braid(5)], ids=["Hessian", "A5"])
def test_leading_ideal_of_a_reduced_basis_is_its_lead_keys(arr):
    # the leads of a reduced basis are minimal generators of its leading ideal
    ring, gens = r1_ideal(arr, 31991)
    gb = buchberger(gens, ring=ring)
    lead = leading_ideal(gb)
    keys = [ring.ord.unpack(g.lead_key()) for g in gb]
    assert len(lead) == len(gb)
    assert lead.gens == tuple(sorted(keys))
    # leading_ideal holds them as they are: no lead divides another
    assert not any(all(a <= b for a, b in zip(k, m)) for k, m in permutations(keys, 2))


def test_leading_ideal_refuses_a_basis_built_by_hand():
    # leads x, x^2 and x*y*z: only x is a minimal generator.  Held as they
    # are, the pure-power base case would multiply (1 - t)(1 - t^2)
    ring = PolyRing(3, 31991)
    gb = GroebnerBasis(ring, [from_exp_terms(ring, t) for t in (
        {(1, 0, 0): 1}, {(2, 0, 0): 1, (0, 1, 1): 3}, {(1, 1, 1): 1, (0, 0, 3): 2})])
    with pytest.raises(ValueError, match="buchberger"):
        leading_ideal(gb)
    keys = [g.lead_key() for g in gb]
    assert hilbert_numerator(MonomialIdeal(ring.ord, keys[:2])) == [1, -1, -1, 1]


@pytest.mark.parametrize(
    "name, p, calls, hits",
    [("A3", 31991, 9, 1), ("A4", 31991, 27, 4), ("A5", 31991, 59, 10),
     ("Hessian", 31991, 159, 36), ("Hessian", 3, 169, 35)],
    ids=["A3", "A4", "A5", "Hessian", "Hessian-p3"],
)
def test_recursion_counters_are_pinned(name, p, calls, hits, monkeypatch):
    # the pivot rule and the memo key fix these, on the engine's final leads:
    # the stop hook's last.  A run the count along the open axes stops forms
    # no numerator; the report keeps the counters off its JSON
    arr = braid(int(name[1])) if name in ("A4", "A5") else fixture(name)
    rep, seen = r1_seen_by_stop(arr, p, monkeypatch)
    count, leads = {}, seen[-1]
    hilbert_numerator(MonomialIdeal(PolyRing(leads.shape[1], p).ord, _ints(leads), leads), count)
    assert (count["calls"], count["hits"]) == (calls, hits)
    stopped = "stopped_at" in rep.engine
    assert (rep.engine["hilbert_calls"], rep.engine["hilbert_hits"]) == ((0, 0) if stopped else (calls, hits))
    assert "hilbert_calls" not in rep.to_json()


def test_hilbert_data_is_order_independent():
    # Macaulay: for homogeneous ideals the Hilbert function of S/in(I) does
    # not depend on the order; permuting the variables under grevlex gives
    # another order, and usually another leading ideal
    rng = random.Random(12)
    moved = 0
    for _ in range(8):
        seeds = []
        nvars = 4
        p = 101
        for _ in range(3):
            deg = rng.randrange(1, 4)
            seeds.append(
                [
                    (
                        tuple(
                            sum(1 for v in combo if v == i) for i in range(nvars)
                        ),
                        rng.randrange(1, p),
                    )
                    for combo in [
                        tuple(rng.randrange(nvars) for _ in range(deg))
                        for _ in range(3)
                    ]
                ]
            )
        ring = PolyRing(nvars, p)
        gens = [from_exp_terms(ring, dict(s)) for s in seeds]
        results = []
        for gs in (gens, [permute_vars(g, (2, 0, 3, 1)) for g in gens]):
            lead = leading_ideal(buchberger(gs, ring=ring))
            results.append((lead.gens, hilbert_function_values(hilbert_numerator(lead), nvars, 8)))
        assert results[0][1] == results[1][1]
        moved += results[0][0] != results[1][0]
    assert moved


def test_grassmannian_g24_degree():
    # G(2,4) is a quadric fourfold in P^5: HP(d) = C(d+4,4)+C(d+3,4) and its
    # leading coefficient says degree 2
    ring = PluckerRing(4, 31991)
    gb = buchberger(plucker_ideal(ring))
    hp = hilbert_polynomial(hilbert_numerator(leading_ideal(gb)), 6)
    from math import comb

    for d in range(1, 6):
        assert hp.evaluate(d) == comb(d + 4, 4) + comb(d + 3, 4)
