"""r1 against Hilbert polynomials known from the theory, beyond the braid ladder.

- Graphic arrangements: R^1 has one local component per triangle and one
  non-local component per K_4, all of dimension 2 (Schenck-Suciu, Trans.
  AMS 358, 2006), so HP = (kappa_3 + kappa_4)*P_0, and 0 on a triangle-free
  graph, whose I_2 is 0.
- Direct sums: R^1 of a product is the union of the parts' R^1 in
  complementary coordinates (Papadima-Suciu, Proc. LMS 100, 2010), so the
  HPs add.
- Ceva(3): 12 local components and four (3,3)-nets, 16*P_0 in every
  characteristic checked but 3.
- Ceva(5): 25 triple points, three local components of dimension 4 from
  the 5-fold points, whose G(2, 4) give 3*(2*P_4 - P_3), and the rest of
  76*P_0 from nets, pinned realized and as flats.

Where the components named from the flats (local ones and (3,2)-nets)
account for the HP, r1 stops its engine early; the HP must not change.
"""

import random
import time
from itertools import combinations

import pytest

from resgrass.arrangement import Arrangement, fixture
from resgrass.oracle import check_prop21
from resgrass.resonance import r1_hilbert

from cases import braid, ceva, ceva3, direct_sum, graphic


def seeded_graphs():
    """16 seeded simple graphs on 4..7 vertices, every fifth one bipartite, so triangle-free."""
    graphs = []
    for seed in range(16):
        rng, v = random.Random(seed), 4 + seed % 4
        side = set(rng.sample(range(v), v // 2)) if seed % 5 == 0 else None
        edges = [e for e in combinations(range(v), 2)
                 if (side is None or (e[0] in side) != (e[1] in side)) and rng.random() < 0.7]
        graphs.append((v, edges or [(0, 1)]))
    return graphs


def cliques(edges, size: int) -> int:
    """kappa_size: the vertex sets of that size on which every pair is an edge."""
    es = set(edges)
    verts = sorted({i for e in edges for i in e})
    return sum(all(pr in es for pr in combinations(c, 2)) for c in combinations(verts, size))


@pytest.mark.parametrize("p", [2, 3, 5, 31991])
def test_graphic_arrangements(p):
    seen, stopped = set(), 0
    for v, edges in seeded_graphs():
        k3, k4 = cliques(edges, 3), cliques(edges, 4)
        want = f"{k3 + k4}*P_0" if k3 + k4 else "0"
        rep = r1_hilbert(graphic(v, edges, p), p)
        assert rep.hilbert == want, (v, edges)
        # the triangles and K_4s are the census, which certifies the HP; a
        # lone triangle gives one variable and no quadric, so no engine run
        assert ("stopped_at" in rep.engine) == bool(rep.engine["degrees"]), (v, edges)
        stopped += "stopped_at" in rep.engine
        seen.add("triangle-free" if not k3 else "K_4" if k4 else "triangles only")
    assert seen == {"triangle-free", "K_4", "triangles only"}
    assert stopped >= 8


def test_graphic_k4_is_braid_a3():
    k4 = graphic(4, list(combinations(range(4), 2)))
    assert k4.flats == braid(3).flats
    assert r1_hilbert(k4).hilbert == "5*P_0"


def test_ceva3_flats():
    arr = ceva3()
    assert (arr.n, len(arr.flats), arr.matrix) == (9, 12, None)
    assert all(len(f) == 3 for f in arr.flats)
    # every two lines meet at exactly one triple point: 12 * 3 = 36 = C(9, 2)
    assert sorted(pr for f in arr.flats for pr in combinations(f, 2)) == list(
        combinations(range(9), 2)
    )


@pytest.mark.parametrize("p", [31991, 5, 2])
def test_ceva3_hilbert_polynomial(p):
    # 12 local components and 4 net components, each a point of G(2, 2)
    assert r1_hilbert(ceva3(), p).hilbert == "16*P_0"


def test_ceva3_at_p3_is_a_regression_pin():
    # holds over F_3 only: the HP does not decode into 16 Grassmannian
    # points there, and this pins what r1 prints, not a known answer
    assert r1_hilbert(ceva3(), 3).hilbert == "12*P_0 + 1*P_2"


@pytest.mark.parametrize("q, points, planes, disjoint", [(2, 48, 16, True), (3, 61, 25, False)])
def test_ceva3_second_route(q, points, planes, disjoint):
    rep = check_prop21(ceva3(), q)
    assert (rep.agree, rep.n_resonant, rep.n_planes) == (True, points, planes)
    assert rep.planes_pairwise_disjoint == disjoint


def test_direct_sum_of_flats_and_of_matrices():
    a3 = fixture("A3")
    a3_flats = Arrangement(6, a3.flats, None, "A3")
    realized, combinatorial = direct_sum(a3, a3), direct_sum(a3_flats, a3_flats)
    assert realized.matrix is not None and combinatorial.matrix is None
    assert realized.flats == combinatorial.flats == a3.flats + tuple(
        tuple(i + 6 for i in f) for f in a3.flats
    )
    for arr in (realized, combinatorial):
        rep = r1_hilbert(arr)
        assert rep.hilbert == "10*P_0" and rep.engine["stopped_at"] == 3


@pytest.mark.parametrize(
    "a, b, hilbert",
    [(braid(4), fixture("A3"), "20*P_0"), (fixture("A3"), fixture("Hessian"), "59*P_0 + 10*P_2")],
    ids=["A4+A3", "A3+Hessian"],
)
def test_direct_sums_add_their_hilbert_polynomials(a, b, hilbert):
    # A4 = 15*P_0, A3 = 5*P_0 and the Hessian = 54*P_0 + 10*P_2; the census
    # misses the Hessian's (4,3)-net, so only A4+A3 stops early
    rep = r1_hilbert(direct_sum(a, b))
    assert rep.hilbert == hilbert
    assert rep.engine.get("stopped_at") == (3 if b.name == "A3" else None)


def test_ceva_flats():
    # m^2 triple points and three m-fold points; Ceva(2) is the braid arrangement A3
    assert ceva(3, 7).flats == ceva3().flats
    assert len(ceva(2, 3).flats) == 4 and r1_hilbert(ceva(2, 3), 3).hilbert == "5*P_0"
    arr = ceva(5, 31)
    assert (arr.n, sorted(map(len, arr.flats))) == (15, [3] * 25 + [5] * 3)
    assert ceva(5, 31991).flats == arr.flats
    with pytest.raises(ValueError, match="root"):
        ceva(5, 37)


@pytest.mark.parametrize("realized", [True, False], ids=["realized-p31", "flats-p31991"])
def test_ceva5_hilbert_polynomial(realized):
    # about 2.7 s on a shared 2-core x86_64 host; the cap is three times that
    arr = ceva(5, 31)
    arr, p = (arr, 31) if realized else (Arrangement(arr.n, arr.flats, None, "Ceva(5)"), 31991)
    t0 = time.perf_counter()
    rep = r1_hilbert(arr, p)
    assert time.perf_counter() - t0 < 8.0
    assert rep.hilbert == "76*P_0 + -3*P_3 + 6*P_4"
    # the census names the 25 + 3 local components, no (3,2)-net, and falls
    # short of the 76 points, so the engine runs to the end
    assert rep.census["components"] == {"local": {"2": 25, "4": 3}, "net": {}}
    assert rep.census["explained"] == "25*P_0 + -3*P_3 + 6*P_4"
    assert "stopped_at" not in rep.engine
    assert rep.decode == {2: 76, 4: 3}
