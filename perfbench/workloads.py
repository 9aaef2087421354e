"""Seeded inputs, known answers and answer checks for the benchmark workloads.

Every expected value here comes from the combinatorics of the arrangement or
from the literature, never from a resgrass run:

- Braid arrangement A_l (columns e_i - e_j of F^(l+1)): R^1 has C(l+1,3)
  local and C(l+1,4) non-local components, all of dimension 2 (Cohen-Suciu
  1999), so its Hilbert polynomial is (C(l+1,3) + C(l+1,4))*P_0 and the
  F_q oracle finds that many planes, each with q+1 points.  The Betti
  numbers of the Orlik-Solomon algebra are the coefficients of
  (1+t)(1+2t)...(1+lt).
- OS points and span forms: one point per dependent triple, and the points
  span I_2, whose dimension is the sum over rank-2 flats X of C(|X|-1, 2).
- Hessian (the 12 lines of AG(2,3), nine quadruple points): 9 local and one
  essential component of dimension 3 give 10*P_2; the 54*P_0 part is the
  headline value the package reproduces (README, ROADMAP).
- Aomoto complex at a point a: if a is nonzero on every hyperplane and its
  sum over every dense edge is nonzero (for A_l: over every vertex set of
  size >= 3), the complex is exact below the top degree (Yuzvinsky 1995),
  so h^0..h^k all vanish.  A point supported on one triple flat with
  coefficients summing to zero lies on exactly one component of R^1, of
  dimension 2, so h^1 = 1 (Libgober-Yuzvinsky 2000).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

P = 31991  # the CLI's default modulus; check-point coordinates live in F_P

HESSIAN_HP = "54*P_0 + 10*P_2"


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload and the answer its JSON output must give.

    answer maps a dotted path into the output ("profile.dims.1") to the
    exact value expected there.  Calls of one group do the same work up to
    relabelling; the benchmark takes the fastest call of each group.
    """

    kind: str
    label: str
    argv: tuple
    answer: dict
    group: str = ""

    def __post_init__(self):
        if not self.group:
            object.__setattr__(self, "group", self.label)


def braid_pairs(ell: int):
    """Hyperplanes of A_ell in their standard order: pairs i < j of 0..ell."""
    return list(combinations(range(ell + 1), 2))


def braid_matrix(ell: int, perm):
    """Rows of the realization whose column perm[h] is e_i - e_j for pair h."""
    pairs = braid_pairs(ell)
    cols = [None] * len(pairs)
    for h, pair in enumerate(pairs):
        cols[perm[h]] = pair
    return [[1 if r == i else -1 if r == j else 0 for i, j in cols] for r in range(ell + 1)]


def braid_flats(ell: int, perm):
    """Triple flats {ij, ik, jk} of A_ell under the relabelling perm."""
    index = {pair: perm[h] for h, pair in enumerate(braid_pairs(ell))}
    return sorted(
        tuple(sorted((index[(i, j)], index[(i, k)], index[(j, k)])))
        for i, j, k in combinations(range(ell + 1), 3)
    )


def braid_betti(ell: int):
    """Coefficients of (1+t)(1+2t)...(1+ell*t)."""
    coeffs = [1]
    for i in range(1, ell + 1):
        coeffs = [a + i * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def braid_components(ell: int) -> int:
    return comb(ell + 1, 3) + comb(ell + 1, 4)


def hessian_flats(perm):
    """The nine quadruple points of the 12 lines of AG(2,3), relabelled by perm.

    Line 3*f + c is the line of slope class f through offset c: x = c, y = c,
    y = x + c and y = 2x + c.
    """
    def lines_through(x, y):
        return (x, 3 + y, 6 + (y - x) % 3, 9 + (y - 2 * x) % 3)

    return sorted(
        tuple(sorted(perm[h] for h in lines_through(x, y)))
        for x in range(3)
        for y in range(3)
    )


def span_counts(n: int, flats):
    """(OS points, span forms) the r1 pipeline must report for these flats."""
    points = sum(comb(len(f), 3) for f in flats)
    forms = comb(n, 2) - sum(comb(len(f) - 1, 2) for f in flats)
    return points, forms


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _matrix_text(rows) -> str:
    return "matrix\n" + "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def _flats_text(n: int, flats) -> str:
    return f"flats n={n}\n" + "".join(",".join(map(str, f)) + "\n" for f in flats)


def _perm(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _r1_op(label: str, path: str, n: int, flats, hilbert: str) -> Op:
    points, forms = span_counts(n, flats)
    return Op(
        "r1",
        label,
        ("r1", "--input", path, "--json"),
        {"hilbert": hilbert, "n_os_points": points, "n_span_forms": forms},
    )


def hessian_r1(rng: random.Random, out: Path):
    # The standard labelling, with the order of the lines in the file and of
    # the hyperplanes on each line drawn from the seed.  Relabelling the
    # hyperplanes moves one solve between 21 s and 34 s, and a run holds one
    # solve, so a relabelled Hessian would make the spread over seeds wider
    # than any bound the benchmark may set; braid-r1 covers relabelling.
    flats = hessian_flats(list(range(12)))
    shown = [rng.sample(f, len(f)) for f in rng.sample(flats, len(flats))]
    path = _write(out / "hessian.txt", _flats_text(12, shown))
    return [[_r1_op("Hessian", path, 12, flats, HESSIAN_HP)]]


BRAID_LADDER = (3, 4, 5)
BRAID_LABELLINGS = 4


def braid_r1(rng: random.Random, out: Path):
    # Relabelling moves an A5 solve by up to a fifth, so each pass
    # takes the next of several seeded labellings: the fastest call of a group
    # then spans labellings instead of resting on one.
    passes = []
    for lab in range(BRAID_LABELLINGS):
        ops = []
        for ell in BRAID_LADDER:
            n = comb(ell + 1, 2)
            perm = _perm(rng, n)
            path = _write(out / f"A{ell}-{lab}.txt", _matrix_text(braid_matrix(ell, perm)))
            ops.append(
                _r1_op(f"A{ell}", path, n, braid_flats(ell, perm), f"{braid_components(ell)}*P_0")
            )
        passes.append(ops)
    return passes


ORACLE_RUNS = ((3, 7), (4, 3))


def oracle_ops(rng: random.Random, out: Path):
    ops = []
    for ell, q in ORACLE_RUNS:
        n = comb(ell + 1, 2)
        path = _write(out / f"A{ell}.txt", _matrix_text(braid_matrix(ell, _perm(rng, n))))
        planes = braid_components(ell)
        ops.append(
            Op(
                "oracle",
                f"A{ell}/F_{q}",
                ("oracle", "--input", path, "--q", str(q), "--json"),
                {
                    "agree": True,
                    "n_planes": planes,
                    "n_plane_points": planes * (q + 1),
                    "n_resonant": planes * (q + 1),
                    "planes_pairwise_disjoint": True,
                    "missing": [],
                    "extra": [],
                },
            )
        )
    return ops


CHECK_ELL = 4
CHECK_K = 3
CHECK_POINTS = 8


def generic_braid_point(rng: random.Random, ell: int):
    """Coefficients by standard pair order, nonzero on every dense edge of A_ell."""
    pairs = braid_pairs(ell)
    while True:
        a = [rng.randrange(1, P) for _ in pairs]
        val = dict(zip(pairs, a))
        if all(
            sum(val[pr] for pr in combinations(s, 2)) % P
            for size in range(3, ell + 2)
            for s in combinations(range(ell + 1), size)
        ):
            return a


def local_braid_point(rng: random.Random, ell: int):
    """Coefficients supported on one triple flat, summing to zero there."""
    pairs = braid_pairs(ell)
    i, j, k = sorted(rng.sample(range(ell + 1), 3))
    while True:
        x, y = rng.randrange(1, P), rng.randrange(1, P)
        if (x + y) % P:
            break
    a = [0] * len(pairs)
    for pr, c in (((i, j), x), ((i, k), y), ((j, k), -(x + y) % P)):
        a[pairs.index(pr)] = c
    return a


def check_point_ops(rng: random.Random, out: Path):
    """CHECK_POINTS calls, alternately generic and local, each on its own relabelled A4."""
    ell, k = CHECK_ELL, CHECK_K
    n = comb(ell + 1, 2)
    betti = braid_betti(ell)[: k + 1]
    # exact in degrees 0..k: rank d_j = b_j - rank d_(j-1)
    last_rank = sum((-1) ** (k - j) * b for j, b in enumerate(betti))
    ops = []
    for t in range(CHECK_POINTS):
        local = t % 2 == 1
        kind = "local" if local else "generic"
        perm = _perm(rng, n)
        path = _write(out / f"cp-A{ell}-{t}.txt", _matrix_text(braid_matrix(ell, perm)))
        a = local_braid_point(rng, ell) if local else generic_braid_point(rng, ell)
        coords = [0] * n
        for h, c in enumerate(a):
            coords[perm[h]] = c
        if local:
            answer = {"profile.dims.0": 0, "profile.dims.1": 1, "resonant_1": True}
        else:
            answer = {
                "profile.dims": [0] * (k + 1),
                "profile.last_rank": last_rank,
                "resonant_1": False,
            }
        answer["profile.ambient_dims"] = betti
        ops.append(
            Op(
                "check-point",
                f"A{ell} {kind} {t}",
                ("check-point", "--input", path, "--k", str(k), "--json",
                 ",".join(map(str, coords))),
                answer,
                group=f"check-point A{ell} {kind}",
            )
        )
    return ops


def oracle(rng: random.Random, out: Path):
    # Every pass makes both oracle runs and two check-point calls, one
    # generic and one local, taking the next pair of points each pass.
    runs = oracle_ops(rng, out)
    points = check_point_ops(rng, out)
    return [runs + points[i : i + 2] for i in range(0, len(points), 2)]


WORKLOADS = {
    "hessian-r1": hessian_r1,
    "braid-r1": braid_r1,
    "oracle": oracle,
}


def build(workload: str, seed: int, out: Path):
    """Write the workload's input files under out and return its passes.

    A pass is a list of calls; run i of the timing loop makes pass i modulo
    the number of passes.
    """
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), out)


def _get(obj, path: str):
    for part in path.split("."):
        if isinstance(obj, list) and part.isdigit() and int(part) < len(obj):
            obj = obj[int(part)]
        elif isinstance(obj, dict) and part in obj:
            obj = obj[part]
        else:
            return None
    return obj


def check(op: Op, stdout: str):
    """Mismatches between the call's JSON output and its known answer."""
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    errs = [
        f"{path}: expected {want!r}, got {_get(obj, path)!r}"
        for path, want in op.answer.items()
        if _get(obj, path) != want
    ]
    if op.kind == "check-point" and not errs:
        # truncated Euler identity of the reported profile
        prof = obj["profile"]
        m = len(prof["dims"]) - 1
        lhs = sum((-1) ** i * h for i, h in enumerate(prof["dims"]))
        rhs = sum((-1) ** i * b for i, b in enumerate(prof["ambient_dims"]))
        if lhs != rhs - (-1) ** m * prof["last_rank"]:
            errs.append("profile breaks the Euler identity")
    return errs
