"""Command-line front end for the resonance pipeline and its oracles.

Subcommands: r1 (Hilbert polynomial of the first resonance variety, from
a grevlex Groebner basis; --stats adds the engine's counters, the census of
components named from the flats and the HP's decode into sub-Grassmannians,
and an HP that does not decode draws a warning on stderr),
check-point (Aomoto profile and resonance verdict for one point), oracle
(exhaustive small-field cross-check, capped by --budget), fixtures (list
built-ins), bench (per-stage r1 timings with the Groebner engine's counters
and times per degree, the degree it stopped after, if it did, and the
Hilbert recursion's calls and memo hits, on the fixtures and braid A4 and
A5, or on one --fixture, the A3 oracle over F_5 and F_7, and an Aomoto
complex to grade 3 with one profile on braid A4; --json adds the
python and numpy versions, the core count, the git revision of the
package's checkout, whether bytecode writing is off and whether the package
holds cached bytecode; no external baseline is run).  Exit codes: 0 success,
2 input error, 3 budget error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .arrangement import Arrangement, fixture, from_matrix, load_arrangement
from .errors import BudgetError, InputError
from .exterior import ExtElement
from .field import DEFAULT_MODULUS, check_kernel_modulus, is_prime
from .oracle import AomotoComplex, check_prop21, is_resonant_k
from .resonance import r1_hilbert

FIXTURES = ("A3", "Hessian")
STAGES = ("span", "groebner", "hilbert", "total")
CHECK_K = 3  # bench times an Aomoto complex to this grade with one profile, on braid A4


def _load(args, p: int) -> Arrangement:
    if args.fixture and args.input:
        raise InputError("give either --fixture or --input, not both")
    if args.fixture:
        return fixture(args.fixture)
    if args.input:
        path = Path(args.input)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {args.input}: {e}") from None
        return load_arrangement(text, name=path.stem, p=p)
    raise InputError("an arrangement is required: --fixture <name> or --input <path>")


def _parse_coords(text: str, n: int) -> list[int]:
    try:
        coords = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"coordinates must be comma-separated integers, got {text!r}") from None
    if len(coords) != n:
        raise InputError(f"expected {n} coordinates, got {len(coords)}")
    return coords


def cmd_r1(args) -> int:
    arr = _load(args, args.p)
    rep = r1_hilbert(arr, p=args.p)
    if rep.decode is None:
        print("warning: the HP does not decode into sub-Grassmannians G(2, k), so it is not R^1's",
              file=sys.stderr)
    if args.json:
        print(rep.to_json(stats=args.stats))
        return 0
    print(f"arrangement: {arr.describe()}")
    print(f"hilbert: {rep.hilbert}")
    print(f"os points: {rep.n_os_points}")
    print(f"span forms: {rep.n_span_forms}")
    t = rep.timings_ms
    print("timings ms: " + "  ".join(f"{s}={t[s]:.3f}" for s in STAGES))
    if args.stats:
        print("stats: " + json.dumps(json.loads(rep.to_json(stats=True))["stats"]))
    return 0


def cmd_check_point(args) -> int:
    arr = _load(args, args.p)
    coords = _parse_coords(args.coords, arr.n)
    p = args.p
    pt = ExtElement(p, 1, {(i,): c % p for i, c in enumerate(coords) if c % p})
    k = args.k
    # one profile serves both verdicts; h^1 = n - 1 - rank d_1, so the point
    # is resonant in grade 1 exactly when h^1 > 0
    kres = is_resonant_k(arr, pt, k)
    prof = kres.profile
    res1 = prof.dims[1] > 0
    if args.json:
        obj = dict(arrangement=arr.name, coords=coords, p=p,
                   profile=json.loads(prof.to_json()), resonant_1=res1)
        if k >= 2:
            obj["k_check"] = dict(k=kres.k, h=kres.h, resonant=kres.resonant)
        print(json.dumps(obj))
        return 0
    print(f"arrangement: {arr.describe()}")
    print(f"point: ({', '.join(str(c) for c in coords)}) over F_{p}")
    print(f"profile h^0..h^{k}: {' '.join(str(h) for h in prof.dims)}")
    print(f"resonant (grade 1): {'yes' if res1 else 'no'}")
    if k >= 2:
        print(f"grade {kres.k}: h={kres.h} resonant={'yes' if kres.resonant else 'no'}")
    return 0


def cmd_oracle(args) -> int:
    check_kernel_modulus(args.q, "enumeration field size")
    arr = _load(args, args.q)
    rep = check_prop21(arr, args.q, args.budget)
    if args.json:
        print(rep.to_json())
        return 0
    print(f"arrangement: {arr.describe()}")
    print(f"field: F_{rep.q}")
    print(f"agree: {'yes' if rep.agree else 'no'}")
    print(f"resonant points: {rep.n_resonant}")
    disjoint = "yes" if rep.planes_pairwise_disjoint else "no"
    print(f"planes: {rep.n_planes} (pairwise disjoint: {disjoint})")
    print(f"plane points: {rep.n_plane_points}")
    if rep.missing:
        print(f"missing from rank test: {[list(pt) for pt in rep.missing]}")
    if rep.extra:
        print(f"flagged on no plane: {[list(pt) for pt in rep.extra]}")
    return 0


def cmd_fixtures(args) -> int:
    arrs = [fixture(name) for name in FIXTURES]
    if args.json:
        rows = [dict(name=a.name, n=a.n, flats=len(a.flats), realized=a.matrix is not None)
                for a in arrs]
        print(json.dumps(rows))
        return 0
    for arr in arrs:
        print(arr.describe())
    return 0


def _spread(values):
    import statistics  # imported here: it pulls in fractions and decimal, about 4 ms a process

    return {"min": min(values), "median": statistics.median(values)}


def _timed(fn, repeat: int):
    """The results of repeat calls of fn, and the min and median of their wall times in ms."""
    outs, times = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        outs.append(fn())
        times.append(round((time.perf_counter() - t0) * 1000.0, 3))
    return outs, _spread(times)


def _braid(ell: int, p: int) -> Arrangement:
    """Braid arrangement A_ell, realized by the columns e_i - e_j (i < j) of F^(ell+1)."""
    pairs = list(combinations(range(ell + 1), 2))
    rows = [[(r == i) - (r == j) for i, j in pairs] for r in range(ell + 1)]
    return from_matrix(rows, f"A{ell}", p)


def cmd_bench(args) -> int:
    a4 = _braid(4, args.p)
    if args.fixture:
        arrs = [fixture(args.fixture)]
    else:
        arrs = [*map(fixture, FIXTURES), a4, _braid(5, args.p)]
    results = []
    for arr in arrs:
        runs = [r1_hilbert(arr, p=args.p) for _ in range(args.repeat)]
        stages = {s: _spread([r.timings_ms[s] for r in runs]) for s in STAGES}
        # the engine's counts repeat from run to run; its times, in seconds, do not
        ms = lambda get: _spread([round(get(r.engine) * 1000.0, 3) for r in runs])
        engine = {k: v for k, v in runs[0].engine.items() if k != "pair_s"}
        engine["pair_ms"] = ms(lambda e: e["pair_s"])
        engine["degrees"] = {d: {k[:-2] + "_ms" if k.endswith("_s") else k:
                                 ms(lambda e: e["degrees"][d][k]) if k.endswith("_s") else v
                                 for k, v in c.items()} for d, c in engine["degrees"].items()}
        results.append(dict(fixture=arr.name, hilbert=runs[0].hilbert, runs=args.repeat,
                            stopped_at=engine.get("stopped_at"),
                            certificate=runs[0].census["certificate"], stages=stages, engine=engine))
    oracle = []
    for arr, q in ((fixture("A3"), 5), (fixture("A3"), 7), (a4, 3)):
        reps, ms = _timed(lambda: check_prop21(arr, q), args.repeat)
        agree = all(rep.agree for rep in reps)
        oracle.append(dict(fixture=arr.name, q=q, agree=agree, runs=args.repeat, ms=ms))
    # a check-point --k CHECK_K call on A4: one AomotoComplex and one profile
    pt = ExtElement(args.p, 1, {(i,): i + 1 for i in range(a4.n)})
    profs, ms = _timed(lambda: AomotoComplex(a4, args.p, CHECK_K).profile(pt), args.repeat)
    check = dict(fixture=a4.name, k=CHECK_K, dims=list(profs[0].dims), runs=args.repeat, ms=ms)
    if args.json:
        # imported here: only bench runs git, and importing subprocess would
        # add about 4 ms to the start of every other command
        import subprocess

        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = None  # no git, or the package is not in a checkout
        # a process that compiles the package from source starts slower and
        # peaks higher than one that loads cached bytecode
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "cores": os.cpu_count(), "git_rev": rev,
               "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
               "pycache": any(Path(__file__).parent.glob("__pycache__/*.pyc"))}
        print(json.dumps({"results": results, "oracle": oracle, "check_point": check,
                          "environment": env}))
        return 0
    for res in results:
        stop = res["stopped_at"]
        stop = (f"  stopped after degree {stop}, certified by {res['certificate']}" if stop
                else "  ran to the end")
        print(f"{res['fixture']}: {res['hilbert']} (runs={res['runs']}){stop}")
        eng = res["engine"]
        for s in STAGES:
            st = res["stages"][s]
            calls = (f"  calls={eng['hilbert_calls']} hits={eng['hilbert_hits']}"
                     if s == "hilbert" else "")
            print(f"  {s:<9} min={st['min']:.3f} ms  median={st['median']:.3f} ms{calls}")
    for orc in oracle:
        agree = "yes" if orc["agree"] else "no"
        print(
            f"oracle {orc['fixture']}/F_{orc['q']}: agree={agree} (runs={orc['runs']})  "
            f"min={orc['ms']['min']:.3f} ms  median={orc['ms']['median']:.3f} ms"
        )
    print(f"check-point A4 --k {CHECK_K}: h={check['dims']} (runs={args.repeat})  "
          f"min={ms['min']:.3f} ms  median={ms['median']:.3f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resgrass",
        description="First resonance varieties via Grassmannians, with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--fixture", help="built-in arrangement: A3 or Hessian")
    src.add_argument("--input", help="path to an arrangement file (JSON, matrix, or flats)")
    src.add_argument("--json", action="store_true", help="machine-readable output")

    r1 = sub.add_parser("r1", parents=[src], help="Hilbert polynomial of R^1")
    r1.add_argument("--p", type=int, default=DEFAULT_MODULUS, help="field modulus (prime)")
    r1.add_argument("--stats", action="store_true",
                    help="add the engine's counters, the component census and the HP's decode")
    r1.set_defaults(func=cmd_r1)

    cp = sub.add_parser("check-point", parents=[src], help="resonance verdict for a point")
    cp.add_argument("coords", help="comma-separated integer coordinates, length n")
    cp.add_argument("--k", type=int, default=1, help="profile depth (grade)")
    cp.add_argument("--p", type=int, default=DEFAULT_MODULUS, help="field modulus (prime)")
    cp.set_defaults(func=cmd_check_point)

    orc = sub.add_parser("oracle", parents=[src], help="exhaustive F_q cross-check")
    orc.add_argument("--q", type=int, default=5, help="enumeration field size (prime)")
    orc.add_argument("--budget", type=int, default=None,
                     help="candidate cap (default 10^7)")
    orc.set_defaults(func=cmd_oracle)

    fx = sub.add_parser("fixtures", help="list built-in arrangements")
    fx.add_argument("--json", action="store_true", help="machine-readable output")
    fx.set_defaults(func=cmd_fixtures)

    bench = sub.add_parser("bench", help="per-stage pipeline timings and the A3 oracle")
    bench.add_argument("--fixture", help="bench one fixture instead of all")
    bench.add_argument("--p", type=int, default=DEFAULT_MODULUS, help="field modulus (prime)")
    bench.add_argument("--repeat", type=int, default=3, help="runs per fixture")
    bench.add_argument("--json", action="store_true", help="machine-readable output")
    bench.set_defaults(func=cmd_bench)
    return parser


def _validate(args):
    p = getattr(args, "p", None)
    if p is not None and not is_prime(p):
        raise InputError(f"--p must be prime, got {p}")
    q = getattr(args, "q", None)
    if q is not None and not is_prime(q):
        raise InputError(f"--q must be prime, got {q}")
    budget = getattr(args, "budget", None)
    if budget is not None and budget <= 0:
        raise InputError(f"--budget must be positive, got {budget}")
    repeat = getattr(args, "repeat", None)
    if repeat is not None and repeat <= 0:
        raise InputError(f"--repeat must be positive, got {repeat}")
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise InputError(f"--k must be at least 1, got {k}")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
