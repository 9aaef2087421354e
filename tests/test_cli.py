import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resgrass import cli
from resgrass.cli import main

from cases import MALFORMED_JSON, NON_STRING_NAMES, run_python

PENCIL = "flats n=3\n0,1,2\n"
BOOLEAN = "matrix\n1 0 0\n0 1 0\n0 0 1\n"


def git_head(folder):
    """HEAD of the checkout holding folder, or None when there is none."""
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=folder, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_r1_braid_text(capsys):
    code, out, err = run(capsys, "r1", "--fixture", "A3")
    assert code == 0
    assert "hilbert: 5*P_0" in out
    assert "os points: 4" in out
    assert "span forms: 11" in out
    assert "timings ms:" in out


def test_r1_braid_json(capsys):
    code, out, _ = run(capsys, "r1", "--fixture", "A3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["hilbert"] == "5*P_0"
    assert obj["n_os_points"] == 4
    assert obj["n_span_forms"] == 11
    assert set(obj["timings_ms"]) == {"span", "groebner", "hilbert", "total"}


def test_r1_json_keys(capsys, tmp_path):
    path = tmp_path / "pencil.txt"
    path.write_text(PENCIL)
    code, out, _ = run(capsys, "r1", "--input", str(path), "--json")
    assert code == 0
    assert set(json.loads(out)) == {
        "arrangement", "n", "p", "hilbert", "n_os_points", "n_span_forms", "timings_ms"
    }


def test_r1_stats(capsys):
    # --stats adds the engine's counters, the census and the HP's decode
    code, out, _ = run(capsys, "r1", "--fixture", "A3", "--json", "--stats")
    assert code == 0
    obj = json.loads(out)
    code, plain, _ = run(capsys, "r1", "--fixture", "A3", "--json")
    assert set(obj) - set(json.loads(plain)) == {"stats"}
    stats = obj["stats"]
    assert set(stats) == {"engine", "census", "decode"}
    assert stats["engine"]["stopped_at"] == 3 and stats["engine"]["created"] == 10
    assert stats["census"] == {"candidates": {"local": 4, "net": 1},
                               "components": {"local": {"2": 4}, "net": {"2": 1}},
                               "explained": "5*P_0", "checks": 1}
    assert stats["decode"] == {"2": 5}
    # an HP that does not decode shows null, and the text form prints one stats line
    code, out, _ = run(capsys, "r1", "--fixture", "Hessian", "--p", "3", "--stats")
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("stats: ")]
    assert len(line) == 1
    stats = json.loads(line[0][len("stats: "):])
    assert stats["decode"] is None and "stopped_at" not in stats["engine"]


def test_r1_has_no_order_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["r1", "--fixture", "A3", "--order", "lex"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


def test_r1_moduli_up_to_the_kernel_bound(capsys):
    # 2^31 - 1 is the largest prime the int64 kernels take exactly
    code, out, _ = run(capsys, "r1", "--fixture", "A3", "--p", str(2**31 - 1), "--json")
    assert code == 0
    assert json.loads(out)["hilbert"] == "5*P_0"
    code, _, err = run(capsys, "r1", "--fixture", "A3", "--p", str(2**61 - 1))
    assert code == 2
    assert "above 2147483648" in err


@pytest.mark.parametrize("p", [2**31 - 1, 10**9 + 7])
def test_r1_hessian_at_large_moduli(capsys, p):
    # both moduli once gave a wrong Hilbert polynomial with exit 0
    code, out, _ = run(capsys, "r1", "--fixture", "Hessian", "--p", str(p), "--json")
    assert code == 0
    assert json.loads(out)["hilbert"] == "54*P_0 + 10*P_2"


def test_r1_from_input_file(capsys, tmp_path):
    path = tmp_path / "boolean3.txt"
    path.write_text(BOOLEAN)
    code, out, _ = run(capsys, "r1", "--input", str(path))
    assert code == 0
    assert "hilbert: 0" in out


def test_check_point_resonant(capsys):
    code, out, _ = run(capsys, "check-point", "--fixture", "A3", "0,1,0,0,-1,0")
    assert code == 0
    assert "resonant (grade 1): yes" in out
    assert "profile h^0..h^1: 0 1" in out


def test_check_point_generic_json(capsys):
    code, out, _ = run(
        capsys, "check-point", "--fixture", "A3", "--k", "2", "--json", "1,1,1,1,1,1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["resonant_1"] is False
    assert obj["profile"]["dims"] == [0, 0, 0]
    assert obj["k_check"] == {"k": 2, "h": 0, "resonant": False}


def test_check_point_essential(capsys):
    code, out, _ = run(capsys, "check-point", "--fixture", "A3", "1,-1,0,-1,0,1")
    assert code == 0
    assert "resonant (grade 1): yes" in out


def test_oracle_braid(capsys):
    code, out, _ = run(capsys, "oracle", "--fixture", "A3", "--q", "5")
    assert code == 0
    assert "agree: yes" in out
    assert "resonant points: 30" in out
    assert "planes: 5 (pairwise disjoint: yes)" in out


def test_oracle_pencil_file_json(capsys, tmp_path):
    path = tmp_path / "pencil.txt"
    path.write_text(PENCIL)
    code, out, _ = run(capsys, "oracle", "--input", str(path), "--q", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["n_resonant"] == 4
    assert obj["n_planes"] == 1


def test_oracle_text_json_numeric_parity(capsys):
    _, text_out, _ = run(capsys, "oracle", "--fixture", "A3", "--q", "5")
    _, json_out, _ = run(capsys, "oracle", "--fixture", "A3", "--q", "5", "--json")
    obj = json.loads(json_out)
    assert f"resonant points: {obj['n_resonant']}" in text_out
    assert f"planes: {obj['n_planes']}" in text_out
    assert f"plane points: {obj['n_plane_points']}" in text_out


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "A3" in out and "Hessian" in out
    code, out, _ = run(capsys, "fixtures", "--json")
    rows = json.loads(out)
    assert [row["name"] for row in rows] == ["A3", "Hessian"]
    assert [row["n"] for row in rows] == [6, 12]


def test_bench_braid(capsys):
    code, out, _ = run(capsys, "bench", "--fixture", "A3", "--repeat", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    (res,) = obj["results"]
    assert res["hilbert"] == "5*P_0"
    assert res["runs"] == 2
    assert set(res["stages"]) == {"span", "groebner", "hilbert", "total"}
    # the F_q oracle on A3 and braid A4, the second route to R^1
    assert [(o["fixture"], o["q"]) for o in obj["oracle"]] == [("A3", 5), ("A3", 7), ("A4", 3)]
    for o in obj["oracle"]:
        assert o["agree"] is True and o["runs"] == 2
        assert 0 < o["ms"]["min"] <= o["ms"]["median"]
    # one check-point --k 3 on braid A4: a complex to grade 3 and a profile
    cp = obj["check_point"]
    assert (cp["fixture"], cp["k"], cp["runs"]) == ("A4", 3, 2)
    assert cp["dims"] == [0, 0, 0, 0]  # the point 1..10 weighs no flat to zero
    assert 0 < cp["ms"]["min"] <= cp["ms"]["median"]
    # the machine the times were taken on
    env = obj["environment"]
    assert set(env) == {"python", "numpy", "cores", "git_rev", "dont_write_bytecode", "pycache"}
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["cores"] == os.cpu_count()
    assert env["git_rev"] == git_head(Path(cli.__file__).parent)
    code, out, _ = run(capsys, "bench", "--fixture", "A3", "--repeat", "1")
    assert code == 0
    assert "oracle A3/F_5: agree=yes" in out and "oracle A3/F_7: agree=yes" in out
    assert "check-point A4 --k 3: h=[0, 0, 0, 0] (runs=1)" in out
    (hil,) = [line for line in out.splitlines() if line.startswith("  hilbert ")]
    assert hil.endswith("  calls=9 hits=1")


def test_bench_git_rev_is_null_outside_a_checkout(capsys, monkeypatch):
    def not_a_checkout(argv, **kwargs):
        raise subprocess.CalledProcessError(128, argv)

    monkeypatch.setattr(subprocess, "run", not_a_checkout)
    code, out, _ = run(capsys, "bench", "--fixture", "A3", "--repeat", "1", "--json")
    assert code == 0
    assert json.loads(out)["environment"]["git_rev"] is None


def test_bench_reports_the_bytecode_cache(capsys, monkeypatch, tmp_path):
    # a package directory with and without cached bytecode, outside a checkout
    pkg = tmp_path / "resgrass"
    (pkg / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(pkg / "cli.py"))
    seen = []
    for pyc in (None, "cli.cpython-311.pyc"):
        if pyc:
            (pkg / "__pycache__" / pyc).write_bytes(b"")
        code, out, _ = run(capsys, "bench", "--fixture", "A3", "--repeat", "1", "--json")
        assert code == 0
        env = json.loads(out)["environment"]
        assert env["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
        seen.append(env["pycache"])
    assert seen == [False, True]


def test_bench_reports_engine_counters(capsys):
    code, out, _ = run(capsys, "bench", "--fixture", "A3", "--repeat", "2", "--json")
    assert code == 0
    (res,) = json.loads(out)["results"]
    eng = res["engine"]
    # the run stops after degree 3, once the components named from the flats
    # account for the HP, so degree 3's leads form no pair
    assert (res["stopped_at"], eng["stopped_at"]) == (3, 3)
    assert {k: eng[k] for k in ("created", "pruned_lcm", "pruned_coprime")} == dict(
        created=10, pruned_lcm=4, pruned_coprime=0
    )
    assert (eng["reductions"], eng["zero_reductions"]) == (6, 5)
    # the Hilbert recursion's calls and memo hits
    assert (eng["hilbert_calls"], eng["hilbert_hits"]) == (9, 1)
    assert sum(c["new"] for c in eng["degrees"].values()) == 6
    assert 0 < eng["pair_ms"]["min"] <= eng["pair_ms"]["median"]
    # each degree's symbolic, elimination and pair-pass times, min <= median
    for c in eng["degrees"].values():
        assert all(0 <= c[k]["min"] <= c[k]["median"] for k in ("symbolic_ms", "elim_ms", "pairs_ms"))


def test_bench_adds_braid_a4_and_a5_without_a_fixture(capsys, monkeypatch):
    # the Hessian is left out here to keep the test short
    monkeypatch.setattr(cli, "FIXTURES", ("A3",))
    code, out, _ = run(capsys, "bench", "--repeat", "1", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert [(r["fixture"], r["hilbert"]) for r in results] == [
        ("A3", "5*P_0"), ("A4", "15*P_0"), ("A5", "35*P_0")
    ]
    # the pullback's degree-2 rows: C(n, 4) quadrics less the vanishing ones and
    # the multiples of earlier ones
    degree2 = [r["engine"]["degrees"]["2"] for r in results]
    assert [(d["rows"], d["new"]) for d in degree2] == [(15, 5), (95, 40), (355, 175)]
    code, out, _ = run(capsys, "bench", "--repeat", "1")
    assert code == 0
    assert "A4: 15*P_0 (runs=1)" in out and "A5: 35*P_0 (runs=1)" in out


def _outcome(capsys, argv):
    """(exit code, output less its timings, stderr) of one main call."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = ("exit", e.code)
    cap = capsys.readouterr()
    out = [line for line in cap.out.splitlines() if not line.startswith("timings ms:")]
    if out and out[0].startswith("{"):
        obj = json.loads(out[0])
        obj.pop("timings_ms", None)
        out = obj
    return code, out, cap.err


def test_one_parser_serves_mixed_calls(capsys, monkeypatch):
    calls = [
        ("r1", "--fixture", "A3"),
        ("fixtures", "--json"),
        ("check-point", "--fixture", "A3", "--k", "2", "1,-1,0,0,0,0"),
        ("r1", "--fixture", "A3", "--order", "lex"),
        ("oracle", "--fixture", "A3", "--q", "3", "--json"),
        ("r1", "--fixture", "Hessian", "--p", "4"),
        ("check-point", "--fixture", "A3", "--json", "1,2,3,4,5,6"),
        ("bogus",),
        ("r1", "--fixture", "A3", "--p", "2", "--json"),
        ("fixtures",),
    ]
    reused = [_outcome(capsys, argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [_outcome(capsys, argv) for argv in calls]
    # argparse errors still exit 2, and input errors return 2
    assert [c[0] for c in reused] == [0, 0, 0, ("exit", 2), 0, 2, 0, ("exit", 2), 0, 0]


def test_input_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "r1")[0] == 2
    assert run(capsys, "r1", "--fixture", "Nope")[0] == 2
    path = tmp_path / "pencil.txt"
    path.write_text(PENCIL)
    assert run(capsys, "r1", "--fixture", "A3", "--input", str(path))[0] == 2
    assert run(capsys, "r1", "--input", str(tmp_path / "missing.txt"))[0] == 2
    assert run(capsys, "r1", "--fixture", "A3", "--p", "9")[0] == 2
    assert run(capsys, "oracle", "--fixture", "A3", "--q", "6")[0] == 2
    assert run(capsys, "check-point", "--fixture", "A3", "1,2")[0] == 2
    assert run(capsys, "check-point", "--fixture", "A3", "a,b,c,d,e,f")[0] == 2
    assert run(capsys, "check-point", "--fixture", "A3", "0,0,0,0,0,0")[0] == 2
    assert run(capsys, "check-point", "--fixture", "A3", "--k", "0", "1,1,1,1,1,1")[0] == 2
    assert run(capsys, "check-point", "--fixture", "A3", "--k", "5", "1,2,3,4,5,6") == (
        2, "", "error: cohomology grade 5 exceeds the arrangement rank 3\n"
    )
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense header\n")
    assert run(capsys, "r1", "--input", str(bad))[0] == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text in MALFORMED_JSON + NON_STRING_NAMES:
        path.write_text(text)
        code, out, err = run(capsys, "r1", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        # r1 --input passes the file stem as the name, and the file is still refused
        assert (err == "error: 'name' must be a string\n") == (text in NON_STRING_NAMES)


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    # a UTF-16 byte-order mark is no UTF-8: every command that reads --input
    # refuses the file by name instead of raising UnicodeDecodeError
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + BOOLEAN.encode("utf-16-le"))
    for argv in (("r1",), ("check-point", "1,2"), ("oracle", "--q", "3")):
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("p", [31991, 2**31 - 1])
def test_wide_entries_act_as_their_residues(capsys, tmp_path, p):
    """An A3 realization with the entry 2^70 + 1 answers as the matrix of its residues mod p."""
    outs = []
    for top in (2**70 + 1, (2**70 + 1) % p):
        folder = tmp_path / str(top)
        folder.mkdir()
        path = folder / "a3.txt"
        path.write_text(f"matrix\n{top} 0 -1 1 0 0\n-1 1 0 0 1 0\n0 -1 1 0 0 1\n")
        src = ("--input", str(path), "--p", str(p))
        code, out, err = run(capsys, "r1", *src, "--json")
        obj = json.loads(out)
        del obj["timings_ms"]
        calls = [(code, obj, err)]
        for k in ("1", "2", "3"):
            for coords in ("1,2,3,4,5,6", "1,-1,0,0,0,0", "1,1,1,0,0,0"):
                calls.append(run(capsys, "check-point", *src, "--k", k, coords, "--json"))
        assert all(c[0] == 0 for c in calls)
        outs.append(calls)
    assert outs[0] == outs[1]


def test_r1_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma, several ms and about 1 MB per process
    out = run_python(
        "import sys\nfrom resgrass import cli\n"
        "cli.main(['r1', '--fixture', 'A3'])\nprint('numpy.ma' in sys.modules)\n"
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_budget_errors_exit_3(capsys):
    code, _, err = run(capsys, "oracle", "--fixture", "A3", "--q", "5", "--budget", "10")
    assert code == 3
    assert "budget" in err
    assert run(capsys, "oracle", "--fixture", "Hessian", "--q", "2")[0] == 3
