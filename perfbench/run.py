"""Known-answer benchmark of resgrass, timed through its command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's input files
(see workloads.py); the run then calls resgrass.cli.main([..., "--json"])
in this one process, pass after pass, until S seconds have been measured,
and checks every output against an answer known independently of resgrass.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters that import the package and write the inputs), pass_min_s
(the seconds of one pass, summed over its groups of calls from the fastest
call of each group) and peak_rss_mb.  --trace 1 spends half of S on untraced
passes and half on traced passes, with every layer boundary wrapped from
outside (tracer.py), and prints the per-layer metrics.
The last line of standard output is the JSON result; a fuller record, with
the environment, every sample and the spans, goes to
perfbench/out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import os

# one thread everywhere, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9


def import_cli():
    """resgrass.cli from this checkout's src/, never from an installed copy."""
    pkg = SRC / "resgrass"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a resgrass checkout")
    sys.path.insert(0, str(SRC))
    import resgrass
    import resgrass.cli

    if Path(resgrass.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported resgrass from {resgrass.__file__}, not {pkg}")
    return resgrass.cli


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def inputs_dir(workload: str, seed: int) -> Path:
    return OUT / "inputs" / f"{workload}-seed{seed}"


def git_rev():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def program_sha256() -> str:
    """Digest of the package and benchmark sources: equal digests, same counts."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "resgrass").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(load_at_start):
    import numpy

    return {
        "git_rev": git_rev(),
        "program_sha256": program_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_at_start),
        "platform": platform.platform(),
    }


class SetupSamples:
    """Wall seconds of fresh interpreters that import the package and write the inputs.

    The samples are spread evenly over the timed passes, between two passes,
    rather than taken in a row: set-up time changes from one half-minute to
    the next on a shared machine, and a row of samples sees only one.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.due = [seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        self.times = []
        self.start = None

    def sample(self):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls every 50 ms and rounds the time
        subprocess.run(self.argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def before(self):
        if self.start is None:
            self.start = time.perf_counter()

    def after(self, done):
        while self.due and time.perf_counter() - self.start >= self.due[0]:
            self.due.pop(0)
            self.sample()

    def finish(self):
        """All samples, taking in a row those the passes ended before."""
        while self.due:
            self.due.pop(0)
            self.sample()
        return self.times


def timed_call(cli, op):
    """One CLI call: wall seconds around main() and the mismatches in its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        secs = time.perf_counter() - t0
    if rc != 0:
        errors = [f"exit code {rc}: {err.getvalue().strip()[-500:]}"]
    else:
        errors = workloads.check(op, out.getvalue())
    return {"label": op.label, "group": op.group, "seconds": secs, "errors": errors}


def run_passes(cli, passes, seconds, on_pass=None):
    """Whole passes, cycling through the workload's groups, for at least seconds."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        group = len(done) % len(passes)
        if on_pass:
            on_pass.before()
        calls = [timed_call(cli, op) for op in passes[group]]
        done.append({
            "group": group,
            "seconds": sum(c["seconds"] for c in calls),
            "calls": calls,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        if on_pass:
            on_pass.after(done[-1])
    return done


class TracedPasses:
    """Collects the spans and counts of each traced pass."""

    def __init__(self, tr):
        self.tr = tr
        self.layers = []
        self.self_sums = []
        self.counts_by_group = {}
        self.first_spans = None
        self.mismatches = []

    def before(self):
        self.tr.reset()

    def after(self, done):
        spans = self.tr.spans
        counts = tracer.counts_of(spans, self.tr.counts)
        key = str(done["group"])
        seen = self.counts_by_group.setdefault(key, counts)
        if seen != counts:
            self.mismatches.append(f"group {key}: counts differ between passes of one run")
        if self.first_spans is None:
            self.first_spans = list(spans)
        self.layers.append(tracer.layer_metrics(spans, self.tr.counts))
        self.self_sums.append(sum(t1 - t0 for _, parent, t0, t1 in spans if parent < 0))


def compare_counts(path: Path, sha: str, counts_by_group):
    """Mismatches against an earlier traced run of the same seed and program."""
    if not path.is_file():
        return []
    try:
        old = json.loads(path.read_text())
    except json.JSONDecodeError:
        return []
    if old.get("environment", {}).get("program_sha256") != sha:
        return []
    out = []
    for group, counts in old.get("trace", {}).get("counts_by_group", {}).items():
        now = counts_by_group.get(group)
        if now is None:
            continue
        for key in sorted(set(counts) | set(now)):
            if counts.get(key) != now.get(key):
                out.append(f"group {group}: {key} was {counts.get(key)}, now {now.get(key)}")
    return out


def calls_per_pass(passes):
    """group -> calls of that group in one pass, averaged over the workload's passes."""
    per = {}
    for ops in passes:
        for op in ops:
            per[op.group] = per.get(op.group, 0) + 1
    return {g: c / len(passes) for g, c in per.items()}


def group_fastest(done):
    """group -> (seconds of its fastest call, calls) over the passes done."""
    times = {}
    for p in done:
        for c in p["calls"]:
            times.setdefault(c["group"], []).append(c["seconds"])
    return {g: (min(t), len(t)) for g, t in times.items()}


def pass_seconds(done, per_pass):
    """Seconds of one pass, built from the fastest call of each group.

    The calls of a group do the same work up to relabelling, so beyond that
    their differences are the machine's, which on a shared host runs up to
    twice as slow in spells that last from seconds to minutes; the fastest
    call is the one such a spell slowed least.
    """
    fastest = group_fastest(done)
    return sum(fastest[g][0] * n for g, n in per_pass.items())


def end_to_end_rows(untraced, per_pass, setup_times):
    """name -> (value, unit, note) of the end-to-end metrics."""
    setup_s, n_setup = statistics.median(setup_times), len(setup_times)
    fastest = group_fastest(untraced)
    # the high-water mark after the first pass: later passes of the same
    # inputs add fragmentation that depends on how many passes fit
    rss_kb = untraced[0]["maxrss_kb"]
    return {
        "setup_s": (setup_s, "s", f"median of {n_setup} fresh interpreters"),
        "pass_min_s": (
            pass_seconds(untraced, per_pass), "s",
            f"{len(untraced)} passes; fastest call: "
            + ", ".join(f"{g} {m:.4g} s of {n}" for g, (m, n) in fastest.items())),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "this process, up to the end of its first pass"),
    }


def per_layer_rows(untraced, tpasses, per_pass, traced, mismatches):
    """name -> (value, unit, note) of the per-layer metrics and the trace's accounting."""
    rows = {}
    n = len(traced.layers)
    for name, (value, unit) in traced.layers[0].items():
        if unit == "s":
            value = statistics.median(lay[name][0] for lay in traced.layers)
            rows[name] = (value, unit, f"median of {n} traced passes")
        else:
            rows[name] = (value, unit, "first traced pass")
    pass_s = pass_seconds(untraced, per_pass)
    tpass_s = pass_seconds(tpasses, per_pass)
    rows["trace.untraced_pass_s"] = (pass_s, "s", f"as pass_min_s, over {len(untraced)} passes")
    rows["trace.traced_pass_s"] = (tpass_s, "s", f"as pass_min_s, over {len(tpasses)} passes")
    rows["trace.overhead_s"] = (tpass_s - pass_s, "s", "traced minus untraced pass")
    rows["trace.self_sum_s"] = (
        statistics.median(traced.self_sums), "s", f"all self times, median of {n} passes")
    rows["trace.spans"] = (len(traced.first_spans), "count", "first traced pass")
    rows["trace.nondeterministic_counts"] = (len(mismatches), "count", "; ".join(mismatches[:3]))
    return rows


def spans_record(spans):
    """Spans as [name index, parent, start, end], times from the first start."""
    names = {n: i for i, n in enumerate(sorted({s[0] for s in spans}))}
    base = spans[0][2] if spans else 0.0
    return {
        "span_names": list(names),
        "spans_first_pass": [
            [names[n], par, round(t0 - base, 7), round(t1 - base, 7)] for n, par, t0, t1 in spans
        ],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    cli = import_cli()
    inputs = inputs_dir(args.workload, args.seed)
    if args.setup_only:
        workloads.build(args.workload, args.seed, inputs)
        return 0

    env = environment(load_at_start)
    passes = workloads.build(args.workload, args.seed, inputs)
    per_pass = calls_per_pass(passes)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"environment": env, "args": vars(args)}
    if args.trace:
        untraced = run_passes(cli, passes, args.seconds / 2)
        traced = TracedPasses(tracer.Tracer())
        with traced.tr:
            tpasses = run_passes(cli, passes, args.seconds / 2, traced)
        mismatches = traced.mismatches + compare_counts(
            result_path, env["program_sha256"], traced.counts_by_group
        )
        for m in mismatches:
            print(f"nondeterminism: {m}", file=sys.stderr)
        rows = per_layer_rows(untraced, tpasses, per_pass, traced, mismatches)
        record["traced_passes"] = tpasses
        record["trace"] = {
            "counts_by_group": traced.counts_by_group,
            "nondeterminism": mismatches,
            **spans_record(traced.first_spans),
        }
    else:
        setup = SetupSamples(args.workload, args.seed, args.seconds)
        untraced = run_passes(cli, passes, args.seconds, setup)
        record["setup_times"] = setup.finish()
        tpasses = []
        rows = end_to_end_rows(untraced, per_pass, record["setup_times"])
    record["passes"] = untraced

    all_calls = [c for p in untraced + tpasses for c in p["calls"]]
    failed = [c for c in all_calls if c["errors"]]
    record["metrics"] = {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in rows.items()}
    record["failures"] = [{"label": c["label"], "errors": c["errors"]} for c in failed]
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment: python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"load {' '.join(f'{x:.2f}' for x in load_at_start)}  rev {env['git_rev']}")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    print(f"  fail_frac {len(failed) / len(all_calls):.4g} ({len(failed)} of {len(all_calls)} calls)")
    for c in failed[:5]:
        print(f"wrong answer: {c['label']}: {'; '.join(c['errors'])}", file=sys.stderr)
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
