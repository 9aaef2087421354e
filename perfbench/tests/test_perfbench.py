"""Tests of the benchmark itself: generators, known answers, checks and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from resgrass import fixture, from_matrix, load_arrangement  # noqa: E402
from resgrass import resonance  # noqa: E402


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_braid_generator_matches_the_realized_flats(ell):
    n = ell * (ell + 1) // 2
    perm = list(range(n))
    random.Random(ell).shuffle(perm)
    arr = from_matrix(workloads.braid_matrix(ell, perm))
    assert arr.n == n
    assert list(arr.flats) == workloads.braid_flats(ell, perm)


def test_braid_known_answers():
    assert workloads.braid_betti(3) == [1, 6, 11, 6]
    assert workloads.braid_betti(4) == [1, 10, 35, 50, 24]
    assert [workloads.braid_components(ell) for ell in range(3, 8)] == [5, 15, 35, 70, 126]


def test_hessian_flats_are_the_fixture_and_relabel():
    flats = workloads.hessian_flats(list(range(12)))
    assert tuple(flats) == fixture("Hessian").flats
    assert all(len(f) == 4 for f in flats) and len(flats) == 9
    for a, b in combinations(flats, 2):
        assert len(set(a) & set(b)) <= 1
    perm = list(reversed(range(12)))
    relabelled = workloads.hessian_flats(perm)
    assert relabelled == sorted(tuple(sorted(perm[h] for h in f)) for f in flats)


def test_span_counts():
    assert workloads.span_counts(12, workloads.hessian_flats(list(range(12)))) == (36, 39)
    assert workloads.span_counts(6, fixture("A3").flats) == (4, 11)


def test_check_point_inputs_satisfy_their_conditions():
    rng = random.Random(7)
    pairs = workloads.braid_pairs(4)
    for _ in range(20):
        a = dict(zip(pairs, workloads.generic_braid_point(rng, 4)))
        assert all(a.values())
        for size in range(3, 6):
            for s in combinations(range(5), size):
                assert sum(a[pr] for pr in combinations(s, 2)) % workloads.P
        b = workloads.local_braid_point(rng, 4)
        support = [pairs[h] for h, c in enumerate(b) if c]
        assert len(support) == 3 and len({i for pr in support for i in pr}) == 3
        assert sum(b) % workloads.P == 0


def test_build_is_a_function_of_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        one = workloads.build(name, 3, tmp_path / "one")
        files_one = {p.name: p.read_text() for p in (tmp_path / "one").iterdir()}
        two = workloads.build(name, 3, tmp_path / "two")
        files_two = {p.name: p.read_text() for p in (tmp_path / "two").iterdir()}
        assert files_one == files_two
        strip = lambda passes: [[(op.label, op.argv[-1], op.answer) for op in ops] for ops in passes]
        assert strip(one) == strip(two)
        shutil.rmtree(tmp_path / "one")
        shutil.rmtree(tmp_path / "two")


def test_oracle_passes_pair_oracle_runs_with_check_points(tmp_path):
    passes = workloads.build("oracle", 5, tmp_path)
    assert len(passes) == workloads.CHECK_POINTS // 2
    for ops in passes:
        assert [op.group for op in ops] == [
            "A3/F_7", "A4/F_3", "check-point A4 generic", "check-point A4 local"]
    labels = [op.label for ops in passes for op in ops if op.kind == "check-point"]
    assert len(set(labels)) == workloads.CHECK_POINTS


def test_pass_seconds_sums_the_fastest_call_of_each_group():
    op = lambda g: workloads.Op("r1", g, (), {})
    passes = [[op("a"), op("b")], [op("a"), op("b"), op("b")]]
    per_pass = run.calls_per_pass(passes)
    assert per_pass == {"a": 1.0, "b": 1.5}
    call = lambda g, t: {"group": g, "seconds": t}
    done = [
        {"calls": [call("a", 1.0), call("b", 2.0)]},
        {"calls": [call("a", 9.0), call("b", 2.0), call("b", 4.0)]},
        {"calls": [call("a", 2.0), call("b", 3.0)]},
    ]
    assert run.pass_seconds(done, per_pass) == pytest.approx(1.0 + 1.5 * 2.0)


def test_setup_samples_spread_over_the_passes(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    setup = run.SetupSamples("braid-r1", 1, float(run.SETUP_REPEATS))  # one due per second
    monkeypatch.setattr(setup, "sample", lambda: setup.times.append(now[0]))
    setup.before()
    now[0] = 2.5
    setup.after(None)
    assert setup.times == [2.5, 2.5, 2.5]
    now[0] = 2.7
    setup.after(None)
    assert len(setup.times) == 3
    assert len(setup.finish()) == run.SETUP_REPEATS


def test_generated_inputs_load(tmp_path):
    for name in workloads.WORKLOADS:
        for ops in workloads.build(name, 1, tmp_path / name):
            for op in ops:
                path = Path(op.argv[op.argv.index("--input") + 1])
                arr = load_arrangement(path.read_text())
                assert arr.n >= 6


def test_check_flags_wrong_answers():
    op = workloads.Op("r1", "x", (), {"hilbert": "5*P_0", "profile.dims.1": 1})
    assert workloads.check(op, json.dumps({"hilbert": "5*P_0", "profile": {"dims": [0, 1]}})) == []
    assert workloads.check(op, json.dumps({"hilbert": "4*P_0", "profile": {"dims": [0, 1]}}))
    assert workloads.check(op, json.dumps({"hilbert": "5*P_0"}))
    assert workloads.check(op, "not json")
    cp = workloads.Op("check-point", "y", (), {})
    good = {"profile": {"dims": [0, 0], "ambient_dims": [1, 6], "last_rank": 5}}
    bad = {"profile": {"dims": [0, 0], "ambient_dims": [1, 6], "last_rank": 4}}
    assert workloads.check(cp, json.dumps(good)) == []
    assert workloads.check(cp, json.dumps(bad)) == ["profile breaks the Euler identity"]


def small_pass(tmp_path):
    """A3 through all three subcommands: fast, and touches every layer."""
    path = tmp_path / "A3.txt"
    path.write_text(workloads._matrix_text(workloads.braid_matrix(3, list(range(6)))))
    p = str(path)
    return [
        workloads.Op("r1", "A3", ("r1", "--input", p, "--json"),
                     {"hilbert": "5*P_0", "n_os_points": 4, "n_span_forms": 11}),
        workloads.Op("oracle", "A3/F_5", ("oracle", "--input", p, "--q", "5", "--json"),
                     {"agree": True, "n_planes": 5, "n_plane_points": 30}),
        workloads.Op("check-point", "A3", ("check-point", "--input", p, "--k", "2", "--json",
                                           "1,1,0,31989,0,0"),
                     {"profile.dims.1": 1, "resonant_1": True}),
    ]


def test_tracer_restores_every_reference():
    orig = resonance.buchberger
    with tracer.Tracer():
        assert resonance.buchberger is not orig
        assert resonance.buchberger.__wrapped__ is orig
    assert resonance.buchberger is orig


def test_traced_passes_nest_and_repeat(tmp_path):
    cli = run.import_cli()
    ops = small_pass(tmp_path)
    traced = run.TracedPasses(tracer.Tracer())
    with traced.tr:
        done = run.run_passes(cli, [ops], 0.0, traced)
        done += run.run_passes(cli, [ops], 0.0, traced)
    assert all(not c["errors"] for p in done for c in p["calls"])
    assert traced.mismatches == []
    spans = traced.first_spans
    for name, parent, t0, t1 in spans:
        assert t0 <= t1
        if parent >= 0:
            assert spans[parent][2] <= t0 and t1 <= spans[parent][3]
    roots = [s for s in spans if s[1] < 0]
    assert [s[0] for s in roots] == ["cli.main"] * 3
    rows = tracer.summarize(spans)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(
        sum(t1 - t0 for _, _, t0, t1 in roots))
    layer = traced.layers[0]
    assert layer["grobner.vars_after_elim"][0] == 4
    assert layer["hilbert.lead_mingens"][0] == layer["grobner.gb_size"][0]
    assert layer["oracle.points_scanned"][0] == (5**6 - 1) // 4
    assert layer["resonance.decomp_candidates"][0] == (5**4 - 1) // 4
    assert layer["oracle.resonant_ratio"][0] == pytest.approx(30 / ((5**6 - 1) // 4))


def test_compare_counts_reports_changes(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "environment": {"program_sha256": "abc"},
        "trace": {"counts_by_group": {"0": {"grobner.gb_size": 3}}},
    }))
    assert run.compare_counts(path, "abc", {"0": {"grobner.gb_size": 3}}) == []
    assert run.compare_counts(path, "abc", {"0": {"grobner.gb_size": 4}})
    assert run.compare_counts(path, "other", {"0": {"grobner.gb_size": 4}}) == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
