import random
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from resgrass.arrangement import fixture
from resgrass.errors import InputError
from resgrass.field import rank
from resgrass.grobner import (
    _BLOCK,
    GroebnerBasis,
    GrevlexOrder,
    PluckerRing,
    PolyRing,
    _F4Engine,
    _PairSet,
    _threshold_bits,
    buchberger,
    normal_form,
    plucker_ideal,
)

from cases import (
    BOUNDARY_PRIME,
    FIRST_REFUSED,
    ReferencePairSet,
    braid,
    lcm,
    r1_ideal,
    rand_poly,
    reference_buchberger,
    reference_interreduce,
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
                assert q.evaluate(coords) == 0


def test_plucker_ring_validation():
    with pytest.raises(ValueError):
        PluckerRing(1, P)
    with pytest.raises(ValueError):
        PolyRing(3, 15)
    with pytest.raises(ValueError):
        PolyRing(3, 7, names=("a", "b"))


# ---------------------------------------------------------------- normal form


def test_normal_form_of_lead_against_quadric():
    ring = PluckerRing(4, P)
    q = plucker_ideal(ring)[0]
    lead = ring.pair_var(0, 3) * ring.pair_var(1, 2)
    r = normal_form(lead, [q])
    assert r == ring.pair_var(0, 2) * ring.pair_var(1, 3) - ring.pair_var(0, 1) * ring.pair_var(2, 3)


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
            assert normal_form(spoly(gens[i], gens[j]), gens).is_zero()


def test_buchberger_plucker_with_vanishing_edge():
    # cutting G(2,4) with the hyperplane w_0_1 = 0
    ring = PluckerRing(4, P)
    gens = plucker_ideal(ring) + [ring.pair_var(0, 1)]
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
    gens = plucker_ideal(ring) + [ring.pair_var(0, 1) - ring.pair_var(3, 4)]
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
            prod = f.ring.from_exp_terms({f.ring.ord.unpack(m): 1}) * g
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


def replay(pairs, events):
    """What a pair set pops when fed events: a lead key to add, a list of
    lead keys to add in one batch, None to pop."""
    out = []
    for ev in events:
        if ev is None:
            out.append(pairs.pop())
        elif isinstance(ev, list):
            pairs.add_elements(ev)
        else:
            pairs.add_element(ev)
    return out


def batched(events, ord_):
    """The same events with each run of equal-degree leads between pops as one batch."""
    out = []
    for ev in events:
        if ev is not None and out and isinstance(out[-1], list):
            if ord_.degree(out[-1][-1]) == ord_.degree(ev):
                out[-1].append(ev)
                continue
        out.append(ev if ev is None else [ev])
    return out


class RecordingPairs:
    """Passes calls on to a pair set and records them as replay events; a
    batch is recorded as its leads, in order, so a replay adds them one at
    a time."""

    def __init__(self, inner):
        self.inner = inner
        self.events = []
        self.pops = []
        self.batches = 0

    def add_element(self, lead):
        self.events.append(lead)
        self.inner.add_element(lead)

    def add_elements(self, leads):
        self.events.extend(leads)
        self.batches += 1
        self.inner.add_elements(leads)

    def __getattr__(self, name):
        # reads such as min_degree and the lead digits change nothing
        return getattr(self.inner, name)

    def pop(self):
        self.events.append(None)
        out = self.inner.pop()
        self.pops.append(out)
        return out


def lead_stream(rng, ord_, length, powers=False):
    """Replay events: random leads, with repeats, leads coprime to an earlier
    one and divisors of an earlier one, pops in between, and enough pops at
    the end to empty the queue.  With powers, some leads are powers x_v^e
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
    for nvars in (4, 7, 8, 9, 16, 17, 35):
        for _ in range(6):
            ord_ = GrevlexOrder(nvars)
            events = lead_stream(rng, ord_, rng.randint(5, 40))
            fast, ref = _PairSet(ord_), ReferencePairSet(ord_)
            assert replay(fast, events) == replay(ref, events)
            assert counters(fast) == counters(ref)
            for k in COUNTERS:
                total[k] += counters(ref)[k]
    # every criterion fired somewhere
    assert all(total.values()), total


def test_batched_pair_set_matches_reference_on_random_lead_streams():
    # each run of equal-degree leads goes in as one batch, as the engine
    # hands over a degree's leads; the reference adds them one at a time
    rng = random.Random(13)
    total = dict.fromkeys(COUNTERS, 0)
    words = set()
    for nvars in (4, 7, 9, 17, 35):
        for powers in (False, True):
            for _ in range(5):
                ord_ = GrevlexOrder(nvars)
                length = rng.randint(40, 80) if powers else rng.randint(5, 60)
                events = lead_stream(rng, ord_, length, powers)
                fast, ref = _PairSet(ord_), ReferencePairSet(ord_)
                assert replay(fast, batched(events, ord_)) == replay(ref, events)
                assert counters(fast) == counters(ref)
                for k in COUNTERS:
                    total[k] += counters(ref)[k]
                bits = _threshold_bits(fast.digits[: len(fast.degs)])
                words.add(bits.shape[1])
    assert all(total.values()), total
    # some streams need more than one 64-bit word of threshold bits
    assert max(words) > 1, words


def test_threshold_bits_decide_divisibility():
    rng = random.Random(14)
    for nvars in (3, 20, 35):
        ord_ = GrevlexOrder(nvars)
        keys = [rand_mono(rng, ord_, maxdeg=rng.choice((2, 6))) for _ in range(60)]
        keys += [ord_.pack_combo([v] * 4) for v in range(nvars)]
        digits = np.frombuffer(
            b"".join(k.to_bytes(nvars + 1, "little")[:nvars] for k in keys), np.uint8
        ).reshape(-1, nvars)
        bits = _threshold_bits(digits)
        # x_v^4 for every v takes at least 4 * nvars bits
        assert bits.shape[1] >= -(-4 * nvars // 64)
        divides = ((bits[:, None] & ~bits[None]) == 0).all(axis=2)
        for a, ka in enumerate(keys):
            for b, kb in enumerate(keys):
                assert divides[a, b] == ord_.divides(ka, kb)
            # the bits of an lcm are the or of its factors' bits
            kl = lcm(ord_, ka, keys[0])
            row = np.frombuffer(kl.to_bytes(nvars + 1, "little")[:nvars], np.uint8)
            both = _threshold_bits(np.vstack([digits, row]))
            assert (both[-1] == both[a] | both[0]).all()


# per degree: rows, zero rows, monomials reached, non-pivot columns, new elements
DEGREE_COUNTERS = ("rows", "zero_rows", "monomials", "nonpivot", "new")
BRAID_DEGREES = {
    4: {2: (200, 160, 45, 45, 40), 3: (201, 195, 48, 11, 6), 4: (47, 47, 54, 5, 0)},
    5: {2: (1065, 890, 190, 190, 175), 3: (2016, 1995, 288, 36, 21), 4: (371, 371, 327, 15, 0)},
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
    ref = ReferencePairSet(ring.ord)
    assert replay(ref, rec.events) == rec.pops
    # the engine hands over each degree's new leads in one batch
    assert rec.batches == len(eng.degrees)
    assert counters(rec.inner) == counters(ref)
    got = dict(counters(ref), reductions=eng.reductions, zero_reductions=eng.zero_reductions)
    assert got == expected
    # every candidate pair is pruned once or reduced once
    assert ref.created == sum(expected[k] for k in COUNTERS[1:]) + eng.reductions
    got = {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in eng.degrees.items()}
    assert got == BRAID_DEGREES[ell]
    # the rows are the input generators and the S-pairs, each reduced once
    assert sum(c["rows"] for c in eng.degrees.values()) == len(gens) + eng.reductions
    assert sum(c["new"] for c in eng.degrees.values()) == len(eng.leads)


def test_basis_keeps_the_engine_counters():
    ring, gens = r1_ideal(braid(4), P)
    gb = buchberger(gens, ring=ring)
    stats = dict(gb.stats)
    assert stats.pop("pair_s") > 0
    degrees = stats.pop("degrees")
    assert stats == dict(reductions=248, zero_reductions=242, created=1035, pruned_lcm=787,
                         pruned_coprime=0)
    assert {d: tuple(c[k] for k in DEGREE_COUNTERS) for d, c in degrees.items()} == BRAID_DEGREES[4]
    assert buchberger([ring.zero()], ring=ring).stats == {}


@pytest.mark.parametrize("name", ["A5", "Hessian"])
def test_pair_pass_memory_stays_within_blocks(name):
    # the degree-2 leads in one batch, and in batches of 40: the temporaries
    # of a pass stay under a fixed multiple of _BLOCK whatever the batch size
    # (one unblocked lcm array would take 0.7 MB on A5, 1.9 MB on the Hessian)
    arr = braid(5) if name == "A5" else fixture("Hessian")
    ring, gens = r1_ideal(arr, P)
    eng = _F4Engine(ring, gens)
    eng.run()
    leads = [m for m in eng.leads if ring.ord.degree(m) == 2]
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
        seen.append((counters(pairs), pairs.heap))
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
    assert len(eng.leads) == 418


def test_s_pairs_past_the_degree_cap_are_refused():
    # leads x^70 and x^10*y^60 have an lcm of degree 130, and the S-polynomial
    # of the two does not reduce to zero, so stopping at the cap is wrong
    ring = PolyRing(3, P)
    f = ring.from_exp_terms({(70, 0, 0): 1, (0, 0, 70): -1})
    g = ring.from_exp_terms({(10, 60, 0): 1, (0, 0, 70): 1})
    with pytest.raises(OverflowError, match="cap 127"):
        buchberger([f, g])
