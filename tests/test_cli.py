"""End-to-end command-line behavior: output shape, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corekit import cli as cli_module
from corekit import theorems as theorems_module
from corekit import (
    Graph,
    alpha,
    family_items,
    fixture,
    fixture_text,
    kernel_gap_family,
    mu,
    random_connected,
    random_unicyclic,
    serialize,
)
from corekit.budgets import DEFAULT_BUDGETS

REPO = Path(__file__).resolve().parent.parent
FIXDIR = REPO / "src" / "corekit" / "fixtures"


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "corekit", *args],
        capture_output=True,
        text=True,
        timeout=300,
        **kw,
    )


def test_analyze_text_golden():
    res = run_cli("analyze", str(FIXDIR / "uni7-ke.txt"))
    assert res.returncode == 0
    assert res.stdout == (
        "graph: uni7-ke\n"
        "n: 7\n"
        "m: 7\n"
        "shape: unicyclic (connected, non-bipartite)\n"
        "alpha: 4\n"
        "mu: 3\n"
        "koenig-egervary: true\n"
        "core: {a, b, c}\n"
        "corona: {a, b, c, x, y}\n"
        "ker: {a, b}\n"
        "critical-difference: 1\n"
        "sum-defect: 0\n"
        "cycle: (v, x, y)\n"
        "n1: {c}\n"
        "pendant: root=c anchor=v vertices={a, b, c, u}\n"
    )


def test_analyze_json_fields():
    res = run_cli("analyze", str(FIXDIR / "uni10-nonke.txt"), "--format", "json")
    assert res.returncode == 0
    rec = json.loads(res.stdout)
    g = fixture("uni10-nonke")
    assert rec["graph_id"] == "uni10-nonke"
    assert rec["n"] == 10 and rec["m"] == 10
    assert rec["alpha"] == alpha(g)
    assert rec["mu"] == mu(g)
    assert rec["ke"] is False
    assert rec["sum_defect"] == 1
    assert rec["shape"] == {"kind": "unicyclic", "connected": True, "bipartite": False}
    assert set(rec["unicyclic"]["cycle"]) == {"y", "d", "t", "c", "w"}
    assert rec["unicyclic"]["n1"] == ["x"]
    assert rec["d_c"] == rec["n"] - 2 * rec["mu"] or rec["d_c"] >= 0


def test_analyze_json_non_unicyclic_has_null_block():
    res = run_cli("analyze", str(FIXDIR / "tree5-pendant.txt"), "--format", "json")
    rec = json.loads(res.stdout)
    assert rec["unicyclic"] is None
    assert rec["ke"] is True


def test_analyze_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n")
    res = run_cli("analyze", str(bad))
    assert res.returncode == 2
    assert "line 1" in res.stderr
    assert res.stdout == ""
    res = run_cli("analyze", str(tmp_path / "missing.txt"))
    assert res.returncode == 2


def test_non_utf8_input_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"a b\n\xff\xfe c\n")
    for args in (("analyze", str(bad)), ("verify", "--theorem", "all", "--graph", str(bad))):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error: "), args
        assert "Traceback" not in res.stderr, args
        assert res.stdout == "", args


def test_verify_single_graph_reports_and_exits_0():
    res = run_cli("verify", "--theorem", "TH4B", "--graph", str(FIXDIR / "uni10-nonke.txt"))
    assert res.returncode == 0
    assert "TH4B uni10-nonke applicable=false holds=-" in res.stdout
    assert "result: all hold" in res.stdout
    assert "elapsed" not in res.stdout  # timing is stderr-only
    assert "elapsed" in res.stderr


def test_verify_all_theorems_on_fixture_family():
    res = run_cli("verify", "--theorem", "all", "--family", "fixtures")
    assert res.returncode == 0
    assert "graphs tested: 15" in res.stdout
    assert "checks run: 210" in res.stdout
    assert "checks applicable: 113" in res.stdout
    assert "failures: 0" in res.stdout


def test_verify_comma_list_and_unknown_theorem():
    res = run_cli(
        "verify", "--theorem", "ZHANG,TH2A", "--graph", str(FIXDIR / "p3.txt")
    )
    assert res.returncode == 0
    assert "theorems: ZHANG, TH2A" in res.stdout
    res = run_cli("verify", "--theorem", "NOPE", "--graph", str(FIXDIR / "p3.txt"))
    assert res.returncode == 2


def test_verify_usage_errors():
    res = run_cli("verify", "--theorem", "MAIN")
    assert res.returncode == 2
    res = run_cli("verify", "--graph", str(FIXDIR / "p3.txt"))
    assert res.returncode == 2
    res = run_cli("verify", "--theorem", "MAIN", "--family", "unicyclic")
    assert res.returncode == 2


def test_verify_counterexample_exits_1(monkeypatch, capsys):
    def always_fails(f, gid):
        return theorems_module._report(
            "ZHANG", gid, applicable=True, holds=False,
            counterexample=(("why", "forced"),),
        )

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", always_fails)
    code = cli_module.main(
        ["verify", "--theorem", "ZHANG", "--family", "trees", "--max-n", "3",
         "--workers", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "failure: ZHANG" in out
    assert "result: counterexample found" in out
    assert "why: forced" in out


def test_verify_fail_fast_pool_stops_reading_the_stream(monkeypatch, capsys):
    def fails_on_even_n(f, gid):
        holds = f.g.n % 2 == 1
        return theorems_module._report(
            "ZHANG", gid, applicable=True, holds=holds,
            counterexample=() if holds else (("why", "forced"),),
        )

    pulled = []

    def counting(*args, **kwargs):
        for item in family_items(*args, **kwargs):
            pulled.append(item[0])
            yield item

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", fails_on_even_n)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(cli_module, "family_items", counting)
    runs = []
    for workers in ("1", "2"):
        pulled.clear()
        code = cli_module.main(
            ["verify", "--theorem", "ZHANG", "--family", "unicyclic", "--max-n", "10",
             "--fail-fast", "--workers", workers]
        )
        runs.append((code, capsys.readouterr().out, len(pulled)))
    (code1, out1, pulled1), (code2, out2, pulled2) = runs
    assert code1 == code2 == 1
    assert out2 == out1
    assert "graphs tested: 2\n" in out1 and "truncated: fail-fast\n" in out1
    assert pulled1 == 2
    # the two graphs read before the pool starts, and the chunks submitted
    # before the first result is read; the stream has 1040 graphs
    in_flight = 2 * theorems_module._CHUNKS_PER_WORKER * theorems_module._CHUNK
    assert pulled2 <= 2 + in_flight < 1040


@pytest.mark.parametrize(
    "limit, message",
    [
        ("--max-subset-n", "subset sweep limited to 8 vertices, got 9"),
        ("--max-enum-n", "unicyclic enumeration limited to n <= 8"),
    ],
)
def test_verify_budget_errors_exit_3(limit, message):
    res = run_cli("verify", "--theorem", "all", "--family", "unicyclic", "--max-n", "10",
                  limit, "8")
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--random", "-2", "--size", "4"], "argument --random: must be at least 0, got -2"),
        (["--family", "fixtures", "--max-enum-n", "-1"],
         "argument --max-enum-n: must be at least 0, got -1"),
        (["--family", "fixtures", "--max-subset-n", "-1"],
         "argument --max-subset-n: must be at least 0, got -1"),
        (["--family", "fixtures", "--matching-limit", "-5"],
         "argument --matching-limit: must be at least 0, got -5"),
        (["--family", "fixtures", "--workers", "0"],
         "argument --workers: must be at least 1, got 0"),
        (["--family", "fixtures", "--workers", "-3"],
         "argument --workers: must be at least 1, got -3"),
        (["--family", "fixtures", "--workers", "two"],
         "argument --workers: invalid int value: 'two'"),
        (["--family", "trees", "--max-n", "-3"], "argument --max-n: must be at least 0, got -3"),
        (["--family", "unicyclic", "--max-n", "-1"],
         "argument --max-n: must be at least 0, got -1"),
    ],
)
def test_verify_out_of_range_integers_exit_2(args, message):
    res = run_cli("verify", "--theorem", "MAIN", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.endswith(f"corekit verify: error: {message}\n")
    assert "Traceback" not in res.stderr


def test_search_negative_max_n_exits_2():
    res = run_cli("search", "--problem", "1", "--max-n", "-2")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.endswith("corekit search: error: argument --max-n: must be at least 0, got -2\n")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cmd", [["analyze", str(FIXDIR / "p3.txt")],
                                 ["search", "--problem", "1", "--max-n", "4"]])
def test_negative_budgets_exit_2_on_every_subcommand(cmd):
    res = run_cli(*cmd, "--max-enum-n", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "argument --max-enum-n: must be at least 0, got -1" in res.stderr


def test_boundary_integers_are_accepted():
    res = run_cli("verify", "--theorem", "MAIN", "--random", "0", "--size", "4",
                  "--workers", "1")
    assert res.returncode == 0
    assert "graphs tested: 0\n" in res.stdout
    res = run_cli("verify", "--theorem", "MAIN", "--graph", str(FIXDIR / "p3.txt"),
                  "--max-enum-n", "0", "--matching-limit", "0", "--max-subset-n", "0")
    assert res.returncode == 0
    assert res.stdout.endswith("result: all hold\n")


def test_verify_one_graph_sweeps_its_subsets_once(monkeypatch, capsys):
    sweep_calls = []
    bruteforce = theorems_module.critical_difference_bruteforce

    def counted(g, budgets):
        sweep_calls.append(g.n)
        return bruteforce(g, budgets)

    monkeypatch.setattr(theorems_module, "critical_difference_bruteforce", counted)
    code = cli_module.main(
        ["verify", "--theorem", "all", "--graph", str(FIXDIR / "bicyclic10-nonke.txt")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert sweep_calls == [10]
    assert out.startswith("LEM1A bicyclic10-nonke applicable=false holds=-\n")
    assert "ZHANG bicyclic10-nonke applicable=true holds=true" in out
    assert "checks run: 14\n" in out


def test_verify_family_refuses_the_subset_budget_before_the_first_graph(monkeypatch, capsys):
    sweep_calls = []
    bruteforce = theorems_module.critical_difference_bruteforce

    def counted(g, budgets):
        sweep_calls.append(g.n)
        return bruteforce(g, budgets)

    monkeypatch.setattr(theorems_module, "critical_difference_bruteforce", counted)
    code = cli_module.main(
        ["verify", "--theorem", "all", "--family", "unicyclic", "--max-n", "12",
         "--max-subset-n", "10", "--workers", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: subset sweep limited to 10 vertices, got 11\n"
    assert sweep_calls == []
    # with both budgets exceeded, the enumeration limit is reported
    code = cli_module.main(
        ["verify", "--theorem", "ZHANG", "--family", "trees", "--max-n", "12",
         "--max-subset-n", "5", "--max-enum-n", "11", "--workers", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: tree enumeration limited to n <= 11\n"
    assert sweep_calls == []


def test_search_problem_1_golden():
    res = run_cli("search", "--problem", "1", "--max-n", "6")
    assert res.returncode == 0
    assert "examined: 8" in res.stdout or "examined:" in res.stdout
    again = run_cli("search", "--problem", "1", "--max-n", "6")
    assert res.stdout == again.stdout


def test_search_problem_2_histogram():
    res = run_cli("search", "--problem", "2", "--max-n", "6")
    assert res.returncode == 0
    assert "sum-defect 0: 17 graphs" in res.stdout
    assert "sum-defect 1: 4 graphs" in res.stdout


def test_search_connected_above_budget_exits_3():
    res = run_cli("search", "--problem", "2", "--max-n", "8", "--family", "connected")
    assert res.returncode == 3
    assert res.stdout == ""


def test_analyze_budget_exit_3(tmp_path):
    # 60 vertices, not bipartite: beyond the branch-and-bound budget for alpha
    big = tmp_path / "big.txt"
    big.write_text(serialize(random_connected(60, 0)))
    res = run_cli("analyze", str(big))
    assert res.returncode == 3
    assert "alpha branch-and-bound limited to components of 40 vertices" in res.stderr


def test_analyze_general_graph_above_old_matching_budget(tmp_path):
    # 30 vertices, not bipartite: mu needs no budget
    path = tmp_path / "g.txt"
    path.write_text(serialize(random_connected(30, 0)))
    res = run_cli("analyze", "--format", "json", str(path))
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout)
    assert rec["n"] == 30 and not rec["shape"]["bipartite"]
    assert set(rec["ker"]) <= set(rec["core"]) <= set(rec["corona"])
    assert rec["ke"] == (rec["alpha"] + rec["mu"] == rec["n"])


def test_analyze_accepts_labels_ending_in_a_prime(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("a a'\na' b\nb a\n")
    res = run_cli("analyze", str(tri))
    assert res.returncode == 0, res.stderr
    assert "ker: {}\n" in res.stdout
    assert "critical-difference: 0\n" in res.stdout


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    # long leaf labels make the report far larger than any pipe buffer, so
    # the child is still writing when the reader goes away
    star = tmp_path / "star.txt"
    star.write_text(
        serialize(Graph.from_edges([("hub", f"leaf{i:04d}" + "x" * 400) for i in range(1000)]))
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "corekit", "analyze", "--format", "json", str(star)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "graph'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 2
    assert "Traceback" not in err


def test_cli_import_loads_no_process_pool():
    # -S keeps site hooks from importing modules of their own
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import corekit.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_cli_runs_load_no_dataclasses_inspect_or_zipfile():
    # -S keeps site-packages .pth files from importing these themselves
    code = (
        "import sys; from corekit.cli import main\n"
        "def loaded(*names): return [m for m in names if m in sys.modules]\n"
        "main(['generate', '--fixture', 'k1'])\n"
        "print('loaded', loaded('dataclasses', 'inspect', 'zipfile'))\n"
        "main(['analyze', '--format', 'json', sys.argv[1]])\n"
        "print('loaded', loaded('dataclasses', 'inspect'))\n"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, str(FIXDIR / "uni10-nonke.txt")],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert res.returncode == 0, res.stderr
    assert [line for line in res.stdout.splitlines() if line.startswith("loaded")] == [
        "loaded []",
        "loaded []",
    ]


def test_generate_fixture_matches_canonical_serialization():
    res = run_cli("generate", "--fixture", "p3")
    assert res.returncode == 0
    assert res.stdout == "a b\nb c\n"
    res = run_cli("generate", "--fixture", "uni9-ke")
    assert res.stdout == serialize(fixture("uni9-ke"))


def test_generate_kernel_gap_and_random():
    res = run_cli("generate", "--family", "kernel-gap", "--k", "2")
    assert res.returncode == 0
    assert res.stdout == serialize(kernel_gap_family(2))
    res1 = run_cli("generate", "--random-unicyclic", "--n", "8", "--seed", "5")
    res2 = run_cli("generate", "--random-unicyclic", "--n", "8", "--seed", "5")
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout
    res3 = run_cli("generate", "--random-unicyclic", "--n", "8", "--seed", "6")
    assert res3.stdout != res1.stdout


def test_generate_usage_errors():
    assert run_cli("generate").returncode == 2
    assert run_cli("generate", "--fixture", "p2", "--k", "3", "--family",
                   "kernel-gap").returncode == 2
    assert run_cli("generate", "--family", "mystery").returncode == 2
    assert run_cli("generate", "--family", "kernel-gap", "--k", "0").returncode == 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 10**6))
def test_analysis_record_internal_consistency(n, seed):
    g = random_unicyclic(n, seed)
    rec = cli_module._analysis_record("t", g, DEFAULT_BUDGETS)
    assert rec["ke"] == (rec["alpha"] + rec["mu"] == rec["n"])
    assert rec["sum_defect"] == len(rec["corona"]) + len(rec["core"]) - 2 * rec["alpha"]
    for key in ("core", "corona", "ker"):
        assert rec[key] == sorted(rec[key])
    assert rec["unicyclic"] is not None


def test_stdout_is_byte_identical_across_runs_and_workers():
    args = ["verify", "--theorem", "all", "--family", "unicyclic", "--max-n", "6"]
    one = run_cli(*args, "--workers", "1")
    two = run_cli(*args, "--workers", "2")
    rerun = run_cli(*args, "--workers", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout == rerun.stdout
