import random
import time
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from resgrass.arrangement import fixture
from resgrass.errors import InputError
from resgrass.exterior import os_ideal_part
from resgrass.field import rank
from resgrass.grobner import (
    _BLOCK,
    _CAP,
    GroebnerBasis,
    GrevlexOrder,
    PluckerRing,
    PolyRing,
    _F4Engine,
    _PairSet,
    _digits,
    _first_subset,
    _threshold_bits,
    buchberger,
    normal_form,
    plucker_ideal,
)

from cases import (
    BOOLEAN,
    BOUNDARY_PRIME,
    FIRST_REFUSED,
    PENCIL,
    ReferencePairSet,
    _DivisorIndex,
    basis_digest,
    braid,
    evaluate,
    first_of_each_multiple,
    from_exp_terms,
    lcm,
    numerator_digest,
    pair_var,
    r1_ideal,
    rand_poly,
    random_simple_realization,
    reference_buchberger,
    reference_interreduce,
    reference_normal_form,
    reference_plucker_ideal,
    spoly,
)

P = 31991


def rand_mono(rng, ord_, maxdeg=4):
    deg = rng.randrange(maxdeg + 1)
    return ord_.pack_combo([rng.randrange(ord_.nvars) for _ in range(deg)])


# ---------------------------------------------------------------- orders


def test_grevlex_on_plucker_quadric_monomials():
    ring = PluckerRing(4, P)
    q = plucker_ideal(ring)[0]
    names = {ring.names[i]: ring.ord.pack_combo((i,)) for i in range(6)}
    mul = ring.ord.mul
    m_outer = mul(names["w_0_1"], names["w_2_3"])
    m_mid = mul(names["w_0_2"], names["w_1_3"])
    m_inner = mul(names["w_0_3"], names["w_1_2"])
    assert m_inner > m_mid > m_outer
    assert q.lead_key() == m_inner  # last differing variable decides, smaller exp wins
    assert q.terms[m_inner] == 1


def test_first_variable_is_largest():
    ring = PolyRing(5, 7)
    keys = [ring.var(i).lead_key() for i in range(5)]
    assert keys == sorted(keys, reverse=True)


def test_grevlex_compares_degree_first():
    ring = PolyRing(2, 7)
    assert ring.ord.pack((1, 0)) < ring.ord.pack((0, 3))


def test_order_properties_random():
    rng = random.Random(5)
    ord_ = GrevlexOrder(5)
    one = ord_.one
    for _ in range(300):
        a, b, c = (rand_mono(rng, ord_) for _ in range(3))
        # multiplicativity and well-order
        if a < b:
            assert ord_.mul(a, c) < ord_.mul(b, c)
        assert a == one or a > one
        # pack/unpack roundtrip
        ea = ord_.unpack(a)
        assert ord_.pack(ea) == a
        assert ord_.degree(a) == sum(ea)
        # divisibility matches exponents
        eb = ord_.unpack(b)
        assert ord_.divides(a, b) == all(x <= y for x, y in zip(ea, eb))
        if ord_.divides(a, b):
            assert ord_.mul(ord_.quo(b, a), a) == b
        # lcm is the exponentwise max
        assert ord_.unpack(lcm(ord_, a, b)) == tuple(
            max(x, y) for x, y in zip(ea, eb)
        )


def test_exponent_caps():
    ord_ = GrevlexOrder(3)
    with pytest.raises(OverflowError):
        ord_.pack((128, 0, 0))
    with pytest.raises(OverflowError):
        ord_.pack((100, 28, 0))
    big = ord_.pack((100, 0, 0))
    with pytest.raises(OverflowError):
        ord_.mul(big, big)


# ---------------------------------------------------------------- plucker ideal


def test_plucker_ideal_n4():
    ring = PluckerRing(4, P)
    quads = plucker_ideal(ring)
    assert len(quads) == 1
    assert repr(quads[0]) == "w_0_3*w_1_2 - w_0_2*w_1_3 + w_0_1*w_2_3"


@pytest.mark.parametrize("p", [2, 3, 5, P])
def test_plucker_ideal_is_the_reference_less_the_multiples(p):
    # the quadrics of plucker_ideal are those of the Poly-arithmetic route, in
    # the same order, less each multiple of an earlier one
    for n in range(4, 9):
        ring = PluckerRing(n, p)
        assert plucker_ideal(ring) == reference_plucker_ideal(ring)  # no multiples here
    rng = random.Random(60 + p)
    arrs = [braid(ell) for ell in (3, 4, 5, 6)] + [fixture("Hessian"), PENCIL, BOOLEAN]
    arrs += [random_simple_realization(rng, p) for _ in range(6)]
    dropped = 0
    for arr in arrs:
        i2 = os_ideal_part(arr, 2, p)
        ring = PolyRing(i2.dim(), p)
        coords = {pr: ring.linear_form(i2.rows[:, c].tolist()) for c, pr in enumerate(i2.subsets)}
        ref = reference_plucker_ideal(ring, coords)
        got = plucker_ideal(ring, i2.rows)
        assert got == first_of_each_multiple(ref), arr.name
        dropped += len(ref) - len(got)
    assert dropped > 0
    with pytest.raises(ValueError, match="C\\(n, 2\\)"):
        plucker_ideal(PolyRing(3, p), np.eye(3, 4, dtype=np.int64))


def test_plucker_quadrics_vanish_on_decomposables():
    rng = random.Random(6)
    for n in (4, 5, 6):
        ring = PluckerRing(n, 101)
        quads = plucker_ideal(ring)
        for _ in range(10):
            x = [rng.randrange(101) for _ in range(n)]
            y = [rng.randrange(101) for _ in range(n)]
            coords = [
                (x[i] * y[j] - x[j] * y[i]) % 101 for i, j in ring.pairs
            ]
            for q in quads:
                assert evaluate(q, coords) == 0


def test_plucker_ring_validation():
    with pytest.raises(ValueError):
        PluckerRing(1, P)
    with pytest.raises(ValueError):
        PolyRing(3, 15)


# ---------------------------------------------------------------- normal form


def test_normal_form_of_lead_against_quadric():
    ring = PluckerRing(4, P)
    q = plucker_ideal(ring)[0]
    lead = pair_var(ring, 0, 3) * pair_var(ring, 1, 2)
    r = normal_form(lead, [q])
    w = lambda i, j: pair_var(ring, i, j)
    assert r == w(0, 2) * w(1, 3) - w(0, 1) * w(2, 3)


def test_normal_form_properties():
    rng = random.Random(7)
    ring = PolyRing(3, 101)
    gens = [rand_poly(ring, rng, 2) for _ in range(2)]
    for _ in range(20):
        f = rand_poly(ring, rng, 3)
        g = rand_poly(ring, rng, 3)
        rf = normal_form(f, gens)
        assert normal_form(rf, gens) == rf
        # linearity of the remainder map
        assert normal_form(f + g, gens) == normal_form(rf + normal_form(g, gens), gens)


@pytest.mark.parametrize("p", [2, 3, 101, 31991, BOUNDARY_PRIME])
def test_normal_form_matches_reference_division(p):
    # the reducer table divides by the first generator whose lead divides a
    # monomial, like the heap division: also for inhomogeneous input and for
    # generators that are not a Groebner basis
    rng = random.Random(70 + p % 1000)
    for trial in range(150):
        ring = PolyRing(rng.randint(1, 4), p)
        homogeneous = trial % 2 == 0
        gens = [
            rand_poly(ring, rng, rng.randint(1, 3), rng.randint(1, 4), homogeneous)
            for _ in range(rng.randint(1, 4))
        ]
        f = rand_poly(ring, rng, rng.randint(1, 4), rng.randint(1, 5), homogeneous)
        assert normal_form(f, gens) == reference_normal_form(f, gens)
    ring = PolyRing(2, p)
    x, y, one = ring.var(0), ring.var(1), ring.one()
    # unit generators, zero input, no generators and a zero generator
    for f, gens in ((x * y + x, [2 * one]), (x * x, [y, 3 * one]), (ring.zero(), [x + y]),
                    (x + y, []), (x + y, [ring.zero()])):
        assert normal_form(f, gens) == reference_normal_form(f, gens)


def test_normal_form_refuses_generators_of_another_ring():
    # each of these came back wrong, unreduced or as a raw OverflowError
    # before the check: a divisor over F_11 reducing an F_7 polynomial, and
    # rings of 5 and 3 variables either way round
    r7, r11, r3, r5 = PolyRing(3, 7), PolyRing(3, 11), PolyRing(3, 7), PolyRing(5, 7)
    for f, gens in (
        (from_exp_terms(r7, {(1, 1, 0): 1}), [from_exp_terms(r11, {(1, 1, 0): 1, (0, 0, 2): 3})]),
        (from_exp_terms(r5, {(1, 0, 0, 0, 1): 1}), [r3.var(0)]),
        (from_exp_terms(r3, {(1, 1, 0): 1}), [r5.var(0) + r5.var(4)]),
    ):
        with pytest.raises(ValueError, match="different rings"):
            normal_form(f, gens)
        with pytest.raises(ValueError, match="different rings"):
            GroebnerBasis(gens[0].ring, gens).contains(f)


@pytest.mark.parametrize("name", ["A5", "Hessian"])
def test_normal_form_matches_reference_on_reduced_bases(name):
    ring, gens = r1_ideal(braid(5) if name == "A5" else fixture("Hessian"), P)
    gb = buchberger(gens, ring=ring)
    basis = list(gb)
    rng = random.Random(71)
    polys = gens[:10] + [spoly(*rng.sample(basis, 2)) for _ in range(10)]
    polys += [rand_poly(ring, rng, 3, 6, homogeneous=True) for _ in range(10)]
    got = [normal_form(f, gb) for f in polys]
    assert got == [reference_normal_form(f, basis) for f in polys]
    assert any(not r.is_zero() for r in got)


# ---------------------------------------------------------------- buchberger


def assert_reduced_gb(gb):
    gens = list(gb)
    for i, g in enumerate(gens):
        assert g.lead_coeff() == 1
        for j, h in enumerate(gens):
            if i == j:
                continue
            lh = h.lead_key()
            for key in g.terms:
                assert not gb.ring.ord.divides(lh, key)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert reference_normal_form(spoly(gens[i], gens[j]), gens).is_zero()


def test_buchberger_plucker_with_vanishing_edge():
    # cutting G(2,4) with the hyperplane w_0_1 = 0
    ring = PluckerRing(4, P)
    gens = plucker_ideal(ring) + [pair_var(ring, 0, 1)]
    gb = buchberger(gens)
    assert len(gb) == 2
    assert repr(gb[0]) == "w_0_1"
    assert repr(gb[1]) == "w_0_3*w_1_2 - w_0_2*w_1_3"
    assert_reduced_gb(gb)


def test_buchberger_unit_ideal():
    ring = PolyRing(2, 7)
    x = ring.var(0)
    gb = buchberger([x, 3 * ring.one()])
    assert len(gb) == 1 and gb[0] == ring.one()


def test_buchberger_refuses_inhomogeneous_input():
    ring = PolyRing(2, 7)
    x, y = ring.var(0), ring.var(1)
    for gens in ([x, x + ring.one()], [x * x - y, y * y - x]):
        with pytest.raises(ValueError, match="homogeneous"):
            buchberger(gens)


def test_buchberger_empty():
    ring = PolyRing(2, 7)
    gb = buchberger([ring.zero()], ring=ring)
    assert len(gb) == 0
    with pytest.raises(ValueError):
        buchberger([])


def test_buchberger_homogenized_textbook():
    # the two parabolas x^2 - y, y^2 - x over F_7, homogenized by z
    ring = PolyRing(3, 7)
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * x - y * z, y * y - x * z]
    gb = buchberger(gens)
    assert_reduced_gb(gb)
    for g in gens:
        assert gb.contains(g)
    assert gb.contains((x * x - y * z) * (y * y) - (y * y - x * z) * (x * x))
    assert not gb.contains(x)


def test_buchberger_linear_elimination_path():
    ring = PolyRing(3, 101)
    x, y, z = (ring.var(i) for i in range(3))
    # a linear generator goes through the engine like any other input
    gb = buchberger([x + y, y * y])
    assert len(gb) == 2
    assert gb.contains(x * x)
    assert not gb.contains(y)
    assert_reduced_gb(gb)


def test_buchberger_deterministic():
    ring = PluckerRing(5, P)
    gens = plucker_ideal(ring) + [pair_var(ring, 0, 1) - pair_var(ring, 3, 4)]
    a = buchberger(gens)
    b = buchberger(list(reversed(gens)))
    assert [repr(g) for g in a] == [repr(g) for g in b]


# ------------------------------------------------- membership oracle (Macaulay)


def all_monomials(ring, deg):
    return [
        ring.ord.pack_combo(c)
        for c in combinations_with_replacement(range(ring.nvars), deg)
    ]


def macaulay_member(gens, f, p):
    """Degree-exact span membership for homogeneous input, via plain rank."""
    d = f.degree()
    cols = {k: i for i, k in enumerate(all_monomials(f.ring, d))}
    rows = []
    for g in gens:
        for m in all_monomials(f.ring, d - g.degree()):
            prod = from_exp_terms(f.ring, {f.ring.ord.unpack(m): 1}) * g
            row = [0] * len(cols)
            for k, c in prod.terms.items():
                row[cols[k]] = c
            rows.append(row)
    frow = [0] * len(cols)
    for k, c in f.terms.items():
        frow[cols[k]] = c
    base = rank(rows, len(cols), p)
    return rank(rows + [frow], len(cols), p) == base


def test_gb_membership_matches_macaulay_oracle():
    rng = random.Random(8)
    p = 101
    hits = 0
    for trial in range(12):
        ring = PolyRing(3, p)
        gens = [
            rand_poly(ring, rng, 2, nterms=2, homogeneous=True),
            rand_poly(ring, rng, 2, nterms=3, homogeneous=True),
        ]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens, ring=ring)
        assert_reduced_gb(gb)
        for g in gens:
            assert gb.contains(g)
        for _ in range(4):
            f = rand_poly(ring, rng, 3, nterms=3, homogeneous=True)
            if f.is_zero():
                continue
            verdict = gb.contains(f)
            assert verdict == macaulay_member(gens, f, p)
            hits += verdict
    # the comparison must exercise both answers
    assert 0 < hits


def test_homogeneous_and_dict_paths_agree():
    # at the boundary prime one product of residues nearly fills int64, so
    # the engine must reduce every product mod p before it sums them
    for p in (101, BOUNDARY_PRIME):
        rng = random.Random(9)
        for trial in range(8):
            ring = PolyRing(4, p)
            gens = [rand_poly(ring, rng, 2, homogeneous=True) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            fast = buchberger(gens, ring=ring)
            slow = sorted(
                reference_interreduce(reference_buchberger(gens)), key=lambda g: g.lead_key()
            )
            assert [g.terms for g in fast] == [g.terms for g in slow]


@pytest.mark.parametrize("p", [2, 3, 101, 31991, BOUNDARY_PRIME])
def test_engine_matches_reference_on_mixed_degree_input(p):
    # generators of degrees 0 to 3 in one ideal: the engine takes each
    # degree's inputs together with that degree's S-pairs
    rng = random.Random(60 + p % 1000)
    seen = set()
    for trial in range(12):
        ring = PolyRing(rng.choice((3, 4)), p)
        degs = [rng.choice((1, 2, 2, 3, 3)) for _ in range(rng.randint(2, 4))]
        if trial == 5:
            degs.append(0)  # a constant: the unit ideal
        gens = [
            rand_poly(ring, rng, d, nterms=rng.randint(1, 4), homogeneous=True) for d in degs
        ]
        gens = [g for g in gens if not g.is_zero()]
        seen.update(g.degree() for g in gens)
        fast = buchberger(gens, ring=ring)
        slow = sorted(
            reference_interreduce(reference_buchberger(gens)), key=lambda g: g.lead_key()
        )
        assert [g.terms for g in fast] == [g.terms for g in slow]
        if 0 in degs:
            assert [g.terms for g in fast] == [ring.one().terms]
    assert seen == {0, 1, 2, 3}


def test_vectorized_engine_refuses_moduli_above_the_kernel_bound():
    assert len(buchberger(plucker_ideal(PluckerRing(4, BOUNDARY_PRIME)))) == 1
    with pytest.raises(InputError, match="above"):
        buchberger(plucker_ideal(PluckerRing(4, FIRST_REFUSED)))
    # all-zero input is refused too: it runs the same engine
    ring = PolyRing(3, FIRST_REFUSED)
    with pytest.raises(InputError, match="above"):
        buchberger([ring.zero()], ring=ring)


def test_random_gb_certificates():
    rng = random.Random(10)
    for trial in range(10):
        ring = PolyRing(3, 7)
        gens = [rand_poly(ring, rng, 2, nterms=2, homogeneous=True) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        assert_reduced_gb(gb)
        for g in gens:
            assert gb.contains(g)


# ---------------------------------------------------------------- pair management

COUNTERS = ("created", "pruned_lcm", "pruned_coprime")


def counters(pairs):
    return {k: getattr(pairs, k) for k in COUNTERS}


def pop_degree(ref, d):
    """Pop a ReferencePairSet's pairs of lcm degree d, none being queued below
    d, as (lcm key, i, j) in the order popped."""
    out = []
    while ref.heap and ref.ord.degree(ref.heap[0][0]) <= d:
        i, j, key = ref.pop()
        assert ref.ord.degree(key) == d
        out.append((key, i, j))
    return out


def keys_of(ord_, digits):
    """The packed keys of rows of complement digits."""
    return [ord_.pack((_CAP - row).tolist()) for row in digits]


def take_tuples(ord_, taken):
    """A pair set's take, its lcm digits, i and j, as (lcm key, i, j) tuples in the take's order."""
    lcms, i, j = taken
    return list(zip(keys_of(ord_, lcms), i.tolist(), j.tolist()))


def take_lowest(pairs):
    """The pairs of the lowest queued lcm degree, taken off the pair set and
    sorted, or [] when none is queued; the reference pops them."""
    if isinstance(pairs, ReferencePairSet):
        return pop_degree(pairs, pairs.ord.degree(pairs.heap[0][0])) if pairs.heap else []
    return sorted(take_tuples(pairs.ord, pairs.take(min(pairs.queued)))) if pairs.queued else []


def replay(pairs, events):
    """What a pair set takes when fed events: a lead key to add through
    add_element (the reference's call), a list of lead keys to add in one
    add_elements batch, None to take the lowest queued degree."""
    out = []
    for ev in events:
        if ev is None:
            out.append(take_lowest(pairs))
        elif isinstance(ev, list):
            pairs.add_elements(_digits(ev, pairs.ord.nvars))
        else:
            pairs.add_element(ev)
    return out


def singletons(events):
    """The same events with each lead in a batch of its own."""
    return [ev if ev is None else [ev] for ev in events]


def batched(events, ord_):
    """The same events with each run of equal-degree leads between takes as one batch."""
    out = []
    for ev in events:
        if ev is not None and out and isinstance(out[-1], list):
            if ord_.degree(out[-1][-1]) == ord_.degree(ev):
                out[-1].append(ev)
                continue
        out.append(ev if ev is None else [ev])
    return out


class RecordingPairs:
    """Passes calls on to a pair set and records them as events: each batch
    of leads as the list of their keys, each take as (degree, take_tuples of
    the pairs taken)."""

    def __init__(self, inner):
        self.inner = inner
        self.events = []

    def add_elements(self, leads):
        self.events.append(keys_of(self.inner.ord, leads))
        self.inner.add_elements(leads)

    def __getattr__(self, name):
        # reads such as the queued degrees and the lead digits change nothing
        return getattr(self.inner, name)

    def take(self, d):
        out = self.inner.take(d)
        self.events.append((d, take_tuples(self.inner.ord, out)))
        return out


def lead_stream(rng, ord_, length, powers=False):
    """Replay events: random leads, with repeats, leads coprime to an earlier
    one and divisors of an earlier one, takes in between, and enough takes
    at the end to empty the queue.  With powers, some leads are powers x_v^e
    with e from 2 to 5."""
    combos, events = [], []
    n = ord_.nvars
    for _ in range(length):
        kind = rng.randrange(6 if powers else 5)
        prev = rng.choice(combos) if combos else None
        if kind == 0 and prev:
            combo = prev
        elif kind == 1 and prev and len(prev) > 1:
            combo = rng.sample(prev, rng.randrange(1, len(prev)))
        elif kind == 2 and prev and len(set(prev)) < n:
            free = [v for v in range(n) if v not in prev]
            combo = rng.choices(free, k=rng.randint(1, 3))
        elif kind == 5:
            combo = [rng.randrange(n)] * rng.randint(2, 5)
        else:
            combo = rng.choices(range(n), k=rng.randint(1, 4))
        combos.append(combo)
        events.append(ord_.pack_combo(combo))
        events.extend([None] * rng.choice((0, 0, 1, 2)))
    return events + [None] * (length * length)


def test_pair_set_matches_reference_on_random_lead_streams():
    rng = random.Random(12)
    total = dict.fromkeys(COUNTERS, 0)
    multi = 0
    for nvars in (4, 7, 8, 9, 16, 17, 35):
        for _ in range(6):
            ord_ = GrevlexOrder(nvars)
            events = lead_stream(rng, ord_, rng.randint(5, 40))
            fast, ref = _PairSet(ord_), ReferencePairSet(ord_)
            takes = replay(fast, singletons(events))
            assert takes == replay(ref, events)
            assert counters(fast) == counters(ref)
            for k in COUNTERS:
                total[k] += counters(ref)[k]
            multi += sum(len(t) > 1 for t in takes)
    # every criterion fired somewhere, and some takes hold several pairs
    assert all(total.values()), total
    assert multi


def test_batched_pair_set_matches_reference_on_random_lead_streams():
    # each run of equal-degree leads goes in as one batch, as the engine
    # hands over a degree's leads; the reference adds them one at a time
    rng = random.Random(13)
    total = dict.fromkeys(COUNTERS, 0)
    words = set()
    multi = 0
    for nvars in (4, 7, 9, 17, 35):
        for powers in (False, True):
            for _ in range(5):
                ord_ = GrevlexOrder(nvars)
                length = rng.randint(40, 80) if powers else rng.randint(5, 60)
                events = lead_stream(rng, ord_, length, powers)
                fast, ref = _PairSet(ord_), ReferencePairSet(ord_)
                takes = replay(fast, batched(events, ord_))
                assert takes == replay(ref, events)
                assert counters(fast) == counters(ref)
                for k in COUNTERS:
                    total[k] += counters(ref)[k]
                multi += sum(len(t) > 1 for t in takes)
                words.add(fast.bits.shape[1])
    assert all(total.values()), total
    assert multi
    # some streams need more than one 64-bit word of threshold bits
    assert max(words) > 1, words


def test_queue_order_does_not_depend_on_the_batches():
    # a degree's pairs are queued in the same order, unsorted, whether its
    # leads come in one add_elements call or one call each
    rng = random.Random(15)
    longest = 0
    for nvars in (4, 9, 17, 35):
        for _ in range(5):
            ord_ = GrevlexOrder(nvars)
            events = lead_stream(rng, ord_, rng.randint(20, 60), powers=True)
            seen = []
            for evs in (batched(events, ord_), singletons(events)):
                pairs, taken = _PairSet(ord_), []
                for ev in evs:
                    if ev is not None:
                        pairs.add_elements(_digits(ev, nvars))
                        longest = max(longest, len(ev))
                    elif pairs.queued:
                        taken.append(take_tuples(ord_, pairs.take(min(pairs.queued))))
                seen.append((taken, counters(pairs)))
            assert seen[0] == seen[1]
            assert not pairs.queued
    assert longest > 1


def test_threshold_bits_decide_divisibility():
    rng = random.Random(14)
    for nvars in (3, 20, 35):
        ord_ = GrevlexOrder(nvars)
        keys = [rand_mono(rng, ord_, maxdeg=rng.choice((2, 6))) for _ in range(60)]
        keys += [ord_.pack_combo([v] * 4) for v in range(nvars)]
        digits = np.frombuffer(
            b"".join(k.to_bytes(nvars + 1, "little")[:nvars] for k in keys), np.uint8
        ).reshape(-1, nvars)
        top = _CAP - digits.min(axis=0).astype(np.int64)
        bits = _threshold_bits(digits, top)
        # x_v^4 for every v takes at least 4 * nvars bits
        assert bits.shape[1] >= -(-4 * nvars // 64)
        divides = ((bits[:, None] & ~bits[None]) == 0).all(axis=2)
        for a, ka in enumerate(keys):
            for b, kb in enumerate(keys):
                assert divides[a, b] == ord_.divides(ka, kb)
            # the bits of an lcm are the or of its factors' bits
            kl = lcm(ord_, ka, keys[0])
            row = np.frombuffer(kl.to_bytes(nvars + 1, "little")[:nvars], np.uint8)
            both = _threshold_bits(np.vstack([digits, row]), top)
            assert (both[-1] == both[a] | both[0]).all()


# per degree: rows, zero rows, monomials reached, non-pivot columns, new elements
DEGREE_COUNTERS = ("rows", "zero_rows", "monomials", "nonpivot", "new")
BRAID_DEGREES = {
    4: {2: (95, 55, 45, 45, 40), 3: (201, 195, 48, 11, 6), 4: (47, 47, 54, 5, 0)},
    5: {2: (355, 180, 190, 190, 175), 3: (2016, 1995, 288, 36, 21), 4: (371, 371, 327, 15, 0)},
    6: {2: (1015, 455, 595, 595, 560), 3: (11956, 11900, 1183, 91, 56),
        4: (1820, 1820, 1330, 35, 0)},
}
HESSIAN_DEGREES = {
    2: (450, 184, 324, 324, 266),
    3: (3834, 3683, 1261, 216, 151),
    4: (3604, 3603, 3751, 70, 1),
    5: (31, 31, 67, 9, 0),
}


@pytest.mark.parametrize(
    "ell, expected",
    [
        (4, dict(reductions=248, zero_reductions=242, created=1035, pruned_lcm=787,
                 pruned_coprime=0)),
        (5, dict(reductions=2387, zero_reductions=2366, created=19110, pruned_lcm=16723,
                 pruned_coprime=0)),
    ],
)
def test_pair_set_matches_reference_on_braid_leads(ell, expected):
    ring, gens = r1_ideal(braid(ell), P)
    eng = _F4Engine(ring, gens)
    rec = eng.pairs = RecordingPairs(eng.pairs)
    eng.run()
    # the reference adds the leads one at a time, and a take of degree d
    # holds the pairs of degree d it pops, with none queued below d
    ref = ReferencePairSet(ring.ord)
    takes = []
    for ev in rec.events:
        if isinstance(ev, list):
            for lead in ev:
                ref.add_element(lead)
        else:
            d, taken = ev
            assert sorted(taken) == pop_degree(ref, d)
            takes.append(taken)
    assert not ref.heap
    # the engine hands over each degree's new leads in one batch, and takes
    # each degree once
    assert len(rec.events) - len(takes) == len(eng.degrees)
    assert len(takes) == len(eng.degrees)
    assert sum(map(len, takes)) == eng.reductions == expected["reductions"]
    assert counters(rec.inner) == counters(ref)
    got = dict(counters(ref), reductions=eng.reductions, zero_reductions=eng.zero_reductions)
    assert got == expected
    # every candidate pair is pruned once or reduced once
    assert ref.created == sum(expected[k] for k in COUNTERS[1:]) + eng.reductions
    got = {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in eng.degrees.items()}
    assert got == BRAID_DEGREES[ell]
    # the rows are the input generators and the S-pairs, each reduced once
    assert sum(c["rows"] for c in eng.degrees.values()) == len(gens) + eng.reductions
    assert sum(c["new"] for c in eng.degrees.values()) == len(eng.pairs.digits)


# basis_digest of the reduced basis of r1_ideal; A4 to A6 are cases.braid
BASIS_DIGESTS = {
    ("A3", 31991): "cd4616402a1cecdf104b48340aa443d83b65a66c185abbe6f74652d0f4ac04d7",
    ("A3", 3): "6ab86238dd614cfcec2f06611e75191744ff8f4c46ba8031e47d64949df83a1c",
    ("A4", 31991): "bd7b29aa509daadae46aada75d30bcb5ea6dc8d7ebc0be86c066bd6dd543a39b",
    ("A4", 3): "bf9892123dfbc8b21f59b2b83a7c47200586b5ac401f5fdb2c1f0bfb5c6ff0c6",
    ("A5", 31991): "8c0837342c99dbab9b9cd7d5d9b6dea16c4ae8af8c5c77ead5e665cc342c3804",
    ("A5", 3): "3cdde98323c2e2c7bd97dc20a1dfd225a70e4e9d2ae6a181fc3a36e6d2739d89",
    ("A6", 31991): "7b9a77020c71025468f8af079d087cf8005a77b061c26871b2ccd6563a9623de",
    ("A6", 3): "3ee645e5271cc64acb60ed81e32e907950f82b99504c66d9e97ef3220e17e526",
    ("Hessian", 31991): "674dcbd659ce343da237fceb054e375a01573fbf7cbb9d8bb1611f58f781d478",
    ("Hessian", 3): "6ef514671559767684b85f182c38c8e56d458339a3a4576f55b2c55b0a9465b8",
}
# numerator_digest of the same bases: the braid numerators do not depend on p
BRAID_NUMERATORS = {
    "A3": "72283f3bd656a9bdde6e8f24fb0aca68011c237d15d5ab36219603637f1e61ac",
    "A4": "f28112fcce08320568e0eb4aaa45385b655094c1b47ad38fe774e8ccbbbcc04a",
    "A5": "fe0f99581c5c065bed660c10d87a5e1887c4759849aa7316758b23b1f0e54a7e",
    "A6": "8749233620ceac4a72ec257165c756ec53ed896400fc82c39ebed3e1e372bdc2",
}
NUMERATOR_DIGESTS = {
    **{(name, p): BRAID_NUMERATORS[name] for name, p in BASIS_DIGESTS if name != "Hessian"},
    ("Hessian", 31991): "f9cdde36402f24991d097c8a748dc49b5f8ad49f6660bc58d5ae0391bf1a1f4f",
    ("Hessian", 3): "95a5ad21f04a363aa2ec87cd55ebb3db861665627eedb02ae3208cc55be43d6c",
}


def pinned_arrangement(name):
    return fixture(name) if name in ("A3", "Hessian") else braid(int(name[1:]))


@pytest.mark.parametrize("name, p", list(BASIS_DIGESTS))
def test_reduced_basis_digest_is_pinned(name, p):
    ring, gens = r1_ideal(pinned_arrangement(name), p)
    gb = buchberger(gens, ring=ring)
    assert basis_digest(gb) == BASIS_DIGESTS[name, p]
    assert numerator_digest(gb) == NUMERATOR_DIGESTS[name, p]


def test_basis_keeps_the_engine_counters():
    ring, gens = r1_ideal(braid(4), P)
    gb = buchberger(gens, ring=ring)
    stats = dict(gb.stats)
    assert stats.pop("pair_s") > 0
    degrees = stats.pop("degrees")
    assert stats == dict(reductions=248, zero_reductions=242, created=1035, pruned_lcm=787,
                         pruned_coprime=0)
    assert {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in degrees.items()} == BRAID_DEGREES[4]
    # all-zero input runs the engine over nothing: every counter is 0
    assert buchberger([ring.zero()], ring=ring).stats == dict(
        degrees={}, reductions=0, zero_reductions=0, created=0, pruned_lcm=0, pruned_coprime=0,
        pair_s=0)


@pytest.mark.parametrize("name", ["A5", "Hessian"])
def test_pair_pass_memory_stays_within_blocks(name):
    # the degree-2 leads in one batch, and in batches of 40: the temporaries
    # of a pass stay under a fixed multiple of _BLOCK whatever the batch size
    # (one unblocked lcm array would take 0.7 MB on A5, 1.9 MB on the Hessian)
    arr = braid(5) if name == "A5" else fixture("Hessian")
    ring, gens = r1_ideal(arr, P)
    eng = _F4Engine(ring, gens)
    eng.run()
    digits = eng.pairs.digits
    leads = digits[digits.sum(axis=1) == _CAP * ring.nvars - 2]
    assert len(leads) in (175, 266)
    seen = []
    for size in (len(leads), 40):
        pairs = _PairSet(ring.ord)
        tracemalloc.start()
        for s in range(0, len(leads), size):
            pairs.add_elements(leads[s : s + size])
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - kept < 3 * _BLOCK, (size, peak - kept)
        queued = {d: take_tuples(ring.ord, pairs.take(d)) for d in sorted(pairs.queued)}
        seen.append((counters(pairs), queued))
    assert seen[0] == seen[1]


def test_hessian_engine_counters():
    # the pair stream is too long to replay through ReferencePairSet here
    ring, gens = r1_ideal(fixture("Hessian"), P)
    eng = _F4Engine(ring, gens)
    eng.run()
    got = dict(counters(eng.pairs), reductions=eng.reductions, zero_reductions=eng.zero_reductions)
    assert got == dict(created=87153, pruned_lcm=79488, pruned_coprime=196, reductions=7469,
                       zero_reductions=7317)
    assert got["created"] == sum(got[k] for k in COUNTERS[1:]) + eng.reductions
    got = {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in eng.degrees.items()}
    assert got == HESSIAN_DEGREES
    assert len(eng.pairs.digits) == 418


HESSIAN_DEGREES_P3 = {
    2: (450, 187, 324, 324, 263),
    3: (3770, 3622, 1310, 233, 148),
    4: (3515, 3504, 4312, 116, 11),
    5: (273, 273, 960, 66, 0),
}


@pytest.mark.parametrize(
    "name, p, expected, degrees",
    [
        ("A6", P, dict(created=189420, pruned_lcm=175644, pruned_coprime=0, reductions=13776,
                       zero_reductions=13720), BRAID_DEGREES[6]),
        ("Hessian", 3, dict(created=88831, pruned_lcm=81072, pruned_coprime=201, reductions=7558,
                            zero_reductions=7399), HESSIAN_DEGREES_P3),
    ],
    ids=["A6", "Hessian-p3"],
)
def test_engine_counters_are_pinned(name, p, expected, degrees):
    ring, gens = r1_ideal(pinned_arrangement(name), p)
    stats = dict(buchberger(gens, ring=ring).stats)
    got = stats.pop("degrees")
    assert {k: stats[k] for k in expected} == expected
    assert {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in got.items()} == degrees


def test_high_degree_input_reaches_degree_89():
    # rows of degrees 59, 60, 88 and 89 from two binomials of degree 30: a
    # degree-89 monomial has C(89, s) sub-monomials of each lead degree s,
    # so the reducer search must not enumerate them
    ring = PolyRing(3, P)
    f = from_exp_terms(ring, {(30, 0, 0): 1, (0, 0, 30): -1})
    g = from_exp_terms(ring, {(1, 29, 0): 1, (0, 0, 30): -1})
    t0 = time.perf_counter()
    gb = buchberger([f, g])
    assert time.perf_counter() - t0 < 5.0
    assert sorted(gb.stats["degrees"]) == [30, 59, 60, 88, 89]
    assert len(gb) == 4
    assert_reduced_gb(gb)
    assert all(reference_normal_form(h, list(gb)).is_zero() for h in (f, g))


def test_reducer_search_finds_the_first_dividing_lead():
    # the threshold-bit search against the first lead a Python scan finds,
    # on monomials with exponents past every lead's (they count as clipped)
    rng = random.Random(16)
    found = missed = 0
    words = set()
    for nvars in (3, 4, 9, 17, 35):
        for _ in range(4):
            ord_ = GrevlexOrder(nvars)
            power = lambda top: ord_.pack_combo([rng.randrange(nvars)] * rng.randint(1, top))
            leads = [rand_mono(rng, ord_, maxdeg=5) for _ in range(rng.randint(1, 30))]
            leads = [m for m in leads + [power(70) for _ in range(3)] if m != ord_.one]
            rng.shuffle(leads)
            monos = [rand_mono(rng, ord_, maxdeg=8) for _ in range(60)]
            monos += [ord_.mul(rng.choice(leads), rand_mono(rng, ord_, 3)) for _ in range(60)]
            monos += [power(120) for _ in range(20)]
            pairs = _PairSet(ord_)
            pairs.hold(_digits(leads, nvars))
            words.add(pairs.bits.shape[1])
            got = _first_subset(pairs.bits, ~_threshold_bits(_digits(monos, nvars), pairs.top))
            index = _DivisorIndex(ord_, leads)
            want = [index.find(m) for m in monos]
            assert got.tolist() == [-1 if w is None else w for w in want]
            found += sum(w is not None for w in want)
            missed += want.count(None)
    assert found and missed
    assert max(words) > 1, words


def test_s_pairs_past_the_degree_cap_are_refused():
    # leads x^70 and x^10*y^60 have an lcm of degree 130, and the S-polynomial
    # of the two does not reduce to zero, so stopping at the cap is wrong
    ring = PolyRing(3, P)
    f = from_exp_terms(ring, {(70, 0, 0): 1, (0, 0, 70): -1})
    g = from_exp_terms(ring, {(10, 60, 0): 1, (0, 0, 70): 1})
    with pytest.raises(OverflowError, match="cap 127"):
        buchberger([f, g])
