import random
from itertools import combinations_with_replacement

import pytest

from resgrass.arrangement import fixture
from resgrass.grobner import PluckerRing, PolyRing, buchberger, plucker_ideal
from resgrass.hilbert import (
    HilbertPoly,
    MonomialIdeal,
    format_hp,
    hilbert_numerator,
    hilbert_polynomial,
    leading_ideal,
)

from cases import braid, from_exp_terms, hilbert_function_values, permute_vars, r1_ideal


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
    mi = MonomialIdeal(3, [(2, 0, 0), (2, 1, 0), (0, 1, 1), (0, 1, 1)])
    assert mi.gens == ((0, 1, 1), (2, 0, 0))
    assert mi.contains((2, 5, 0))
    assert not mi.contains((1, 1, 0))


def test_numerator_hand_example():
    # <x^2, xy>: 1 - 2t^2 + t^3
    mi = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert hilbert_numerator(mi) == [1, 0, -2, 1]


def test_numerator_empty_and_unit():
    assert hilbert_numerator(MonomialIdeal(3, [])) == [1]
    assert hilbert_numerator(MonomialIdeal(3, [(0, 0, 0)])) == []
    assert format_hp(hilbert_polynomial([0], 3)) == "0"


def test_full_polynomial_ring():
    hp = hilbert_polynomial(hilbert_numerator(MonomialIdeal(3, [])), 3)
    assert hp.coeffs == (0, 0, 1)
    assert format_hp(hp) == "1*P_2"


def test_points_have_constant_polynomial():
    # five points on a line: ideal (x^5) in k[x, y], projectively
    hp = hilbert_polynomial(hilbert_numerator(MonomialIdeal(2, [(5, 0)])), 2)
    assert format_hp(hp) == "5*P_0"


def test_artinian_quotient_has_zero_polynomial():
    hp = hilbert_polynomial(hilbert_numerator(MonomialIdeal(1, [(3,)])), 1)
    assert format_hp(hp) == "0"


def test_twisted_cubic_initial_ideal():
    # <y^2, yz, z^2> in 4 variables: HF(d) = 3d + 1
    mi = MonomialIdeal(4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)])
    numer = hilbert_numerator(mi)
    assert hilbert_function_values(numer, 4, 5) == [1, 4, 7, 10, 13, 16]
    hp = hilbert_polynomial(numer, 4)
    assert format_hp(hp) == "-2*P_0 + 3*P_1"
    assert [hp.evaluate(d) for d in range(4)] == [1, 4, 7, 10]


def test_formatting():
    assert format_hp(HilbertPoly(())) == "0"
    assert format_hp(HilbertPoly((5,))) == "5*P_0"
    assert format_hp(HilbertPoly((54, 0, 10))) == "54*P_0 + 10*P_2"


def test_random_ideals_against_counting_oracle():
    # (ideals, variables, generators, steps of one generator's degree); the
    # wider shapes reach the colon on a pivot of exponent 0, 1 and above
    rng = random.Random(11)
    for count, nvars_to, gens_to, deg_to in ((15, 5, 4, 4), (40, 6, 7, 5)):
        for _ in range(count):
            nvars = rng.randrange(2, nvars_to)
            gens = []
            for _ in range(rng.randrange(1, gens_to)):
                exps = [0] * nvars
                for _ in range(rng.randrange(1, deg_to)):
                    exps[rng.randrange(nvars)] += 1
                gens.append(tuple(exps))
            mi = MonomialIdeal(nvars, gens)
            numer = hilbert_numerator(mi)
            vals = hilbert_function_values(numer, nvars, 7)
            assert vals == [brute_hf(mi, d) for d in range(8)]
            # polynomial agrees with the function for large degrees
            hp = hilbert_polynomial(numer, nvars)
            assert not hp.coeffs or hp.coeffs[-1]
            start = max(len(numer) - 1, 0)
            for d in range(start, 8):
                assert hp.evaluate(d) == vals[d]


def test_monomial_ideals_share_the_packing_cap():
    for gens in ([(128, 0, 0)], [(-1, 0, 0)], [(100, 28, 0)], [(1, 0, 0), (0, 64, 64)]):
        with pytest.raises(OverflowError):
            MonomialIdeal(3, gens)
    assert MonomialIdeal(3, [(127, 0, 0), (0, 100, 27)]).gens == ((0, 100, 27), (127, 0, 0))


@pytest.mark.parametrize("arr", [fixture("Hessian"), braid(5)], ids=["Hessian", "A5"])
def test_leading_ideal_of_a_reduced_basis_is_its_lead_keys(arr):
    # the leads of a reduced basis are minimal generators of its leading ideal
    ring, gens = r1_ideal(arr, 31991)
    gb = buchberger(gens, ring=ring)
    lead = leading_ideal(gb)
    assert len(lead) == len(gb)
    assert lead.gens == tuple(sorted(ring.ord.unpack(g.lead_key()) for g in gb))


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
