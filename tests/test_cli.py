"""End-to-end command-line behavior: output shape, exit codes, determinism."""

import hashlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corekit import cli as cli_module
from corekit import corpus as corpus_module
from corekit import independence as independence_module
from corekit import matching as matching_module
from corekit import theorems as theorems_module
from corekit import unicyclic as unicyclic_module
from corekit import (
    BudgetExceededError,
    FIXTURE_NAMES,
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
from corekit.budgets import DEFAULT_BUDGETS, Budgets

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


def test_too_deep_search_exits_2_without_traceback(tmp_path):
    # TH1 searches the line graph of K1,1199, a 1199-clique, one recursion
    # level per vertex: deeper than the interpreter's default limit
    star = tmp_path / "star.txt"
    star.write_text("".join(f"c l{i}\n" for i in range(1199)))
    res = run_cli("verify", "--theorem", "TH1", "--graph", str(star), "--max-enum-n", "5000")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_analyze_reads_a_byte_order_mark_as_no_part_of_a_label(tmp_path, capsys):
    tri = tmp_path / "bom.txt"
    tri.write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\n")
    assert cli_module.main(["analyze", str(tri)]) == 0
    out = capsys.readouterr().out
    assert "n: 3\n" in out
    assert "shape: unicyclic (connected, non-bipartite)\n" in out
    assert "corona: {a, b, c}\n" in out


def test_verify_graph_reads_a_byte_order_mark_as_no_part_of_a_label(tmp_path, capsys):
    tri = tmp_path / "bom.txt"
    tri.write_bytes(b"\xef\xbb\xbfa b\nb c\nc a\n")
    assert cli_module.main(["verify", "--theorem", "MAIN", "--graph", str(tri)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("MAIN bom applicable=true holds=true sum=3 two_alpha=2 sum_defect=1 ")


_ONE_EACH = ("classify_shape", "_alpha_active", "_drops", "mu")


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: cli_module.main(["analyze", str(FIXDIR / "uni10-nonke.txt")]),
         _ONE_EACH + ("_decompose",)),
        (lambda: cli_module.main(["analyze", str(FIXDIR / "bicyclic10-ke.txt")]), _ONE_EACH),
        (lambda: theorems_module.classify_sum_defect(fixture("uni10-nonke")),
         ("_alpha_active", "_drops")),
    ],
    ids=["analyze-uni10-nonke", "analyze-bicyclic10-ke", "classify_sum_defect"],
)
def test_one_record_reads_each_primitive_once(monkeypatch, capsys, run, expected):
    # every value comes through the record's bindings in theorems, once, and
    # alpha, core and corona come from one run of each dispatch stage: no
    # other whole-graph alpha query
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("classify_shape", "mu", "_alpha_active", "_drops", "_decompose"):
        monkeypatch.setattr(theorems_module, name, counted(name, getattr(theorems_module, name)))

    def counted_alpha(adj, active, budgets, real=independence_module._alpha_active):
        if active == (1 << len(adj)) - 1:
            calls.append("alpha")
        return real(adj, active, budgets)

    monkeypatch.setattr(independence_module, "_alpha_active", counted_alpha)
    run()
    capsys.readouterr()
    assert sorted(calls) == sorted(expected)
    assert "alpha" not in calls


def test_search_problem_2_asks_each_general_component_one_first_set(monkeypatch, capsys):
    # the record's one pass gives alpha from the first branch-and-bound set
    # that core and corona start from: 887 fewer sets than two passes
    calls = []
    real = independence_module._bb_set

    def counted(adj, active):
        calls.append(active)
        return real(adj, active)

    monkeypatch.setattr(independence_module, "_bb_set", counted)
    args = ["search", "--problem", "2", "--family", "connected", "--max-n", "7"]
    assert cli_module.main(args) == 0
    capsys.readouterr()
    assert len(calls) == 5232


def test_analyze_walks_the_cycle_once(monkeypatch, capsys):
    walked = []
    for module in (theorems_module, unicyclic_module):
        def counted(g, real=module._walk_cycle):
            walked.append(g)
            return real(g)
        monkeypatch.setattr(module, "_walk_cycle", counted)
    assert cli_module.main(["analyze", str(FIXDIR / "uni10-nonke.txt")]) == 0
    assert "cycle: (" in capsys.readouterr().out
    assert len(walked) == 1


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


_CORPUS_OPTIONS = {
    "graph": ["--graph", str(FIXDIR / "p3.txt")],
    "family": ["--family", "trees", "--max-n", "3"],
    "random": ["--random", "4", "--size", "5"],
}


@pytest.mark.parametrize("sources", [("graph", "family"), ("graph", "random"),
                                     ("family", "random"), ("graph", "family", "random")],
                         ids="+".join)
def test_verify_refuses_conflicting_corpus_options(capsys, sources):
    argv = ["verify", "--theorem", "all", "--workers", "1"]
    for name in sources:
        argv += _CORPUS_OPTIONS[name]
    with pytest.raises(SystemExit) as exc:
        cli_module.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err.splitlines()[-1]


@pytest.mark.parametrize("family", ["trees", "unicyclic", "connected"])
def test_search_problem_1_refuses_a_family(capsys, family):
    assert cli_module.main(["search", "--problem", "1", "--max-n", "5", "--family", family]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_verify_counterexample_exits_1(monkeypatch, capsys):
    def always_fails(f):
        return True, False, (), (("why", "forced"),)

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
    def fails_on_even_n(f):
        return True, f.g.n % 2 == 1, (), (("why", "forced"),)

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


def _verify_with_workers(argv, capsys):
    """(exit code, stdout, stderr) of verify at --workers 1 and at 2."""
    runs = []
    for workers in ("1", "2"):
        code = cli_module.main(["verify", *argv, "--workers", workers])
        runs.append((code, *capsys.readouterr()))
    return runs


def test_verify_checker_error_in_a_worker_exits_as_in_process(monkeypatch, capsys,
                                                               forked_pids):
    def refuses_n8(f):
        if f.g.n == 8:
            raise BudgetExceededError("forced refusal at n = 8")
        return True, True

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", refuses_n8)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    one, two = _verify_with_workers(
        ["--theorem", "MAIN,ZHANG", "--family", "unicyclic", "--max-n", "9"], capsys)
    assert one == two == (3, "", "error: forced refusal at n = 8\n")
    assert len(forked_pids) == 1


def test_verify_checker_error_in_this_process_exits_as_in_process(monkeypatch, capsys,
                                                                  forked_pids):
    parent = os.getpid()
    first_n8 = next(serialize(g) for _, g in family_items("unicyclic", max_n=9) if g.n == 8)
    refused_here = []

    def refuses_n8_behind_a_slow_worker(f):
        if os.getpid() != parent:
            # the worker lags on its first chunks, so this process checks
            # the ones after them, the first n = 8 graph's among them
            time.sleep(0.02)
        if f.g.n == 8:
            if os.getpid() == parent:
                refused_here.append(serialize(f.g))
            raise BudgetExceededError("forced refusal at n = 8")
        return True, True

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", refuses_n8_behind_a_slow_worker)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    runs = []
    for workers in ("1", "2"):
        refused_here.clear()
        code = cli_module.main(["verify", "--theorem", "MAIN,ZHANG", "--family", "unicyclic",
                                "--max-n", "9", "--workers", workers])
        runs.append((code, *capsys.readouterr(), first_n8 in refused_here))
    assert runs[0] == runs[1] == (3, "", "error: forced refusal at n = 8\n", True)
    assert len(forked_pids) == 1


def test_verify_killed_worker_is_an_error(monkeypatch, capsys, forked_pids):
    parent = os.getpid()

    def dies_in_a_worker(f):
        # on the worker's first graph, whichever graphs this process checks
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return True, True

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", dies_in_a_worker)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    one, two = _verify_with_workers(
        ["--theorem", "ZHANG", "--family", "unicyclic", "--max-n", "9"], capsys)
    assert one[0] == 0
    assert two == (2, "", "error: a sweep worker ended before sending its results\n")
    assert len(forked_pids) == 1


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


def test_cli_budget_defaults_are_those_of_default_budgets(monkeypatch, capsys):
    patched = Budgets(enum_n=7, subset_n=8, matching_limit=9)
    monkeypatch.setattr(cli_module, "DEFAULT_BUDGETS", patched)
    parser = cli_module._build_parser()
    assert cli_module._budgets_from(parser.parse_args(["analyze", "g.txt"])) == patched
    with pytest.raises(SystemExit):
        parser.parse_args(["analyze", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "enumeration-backed operations (default 7)" in help_text
    assert "subset-sweep operations (default 8)" in help_text
    assert "maximum matchings (default 9)" in help_text


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

    generated = []
    make_random = corpus_module.random_connected

    def counted_random(n, seed):
        generated.append(n)
        return make_random(n, seed)

    monkeypatch.setattr(theorems_module, "critical_difference_bruteforce", counted)
    monkeypatch.setattr(corpus_module, "random_connected", counted_random)
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
    # a --random stream has one order, its size, checked before any graph
    code = cli_module.main(
        ["verify", "--theorem", "ZHANG", "--random", "1", "--size", "4000", "--workers", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: subset sweep limited to 20 vertices, got 4000\n"
    assert generated == []
    assert sweep_calls == []
    # TH11 enumerates the maximum independent sets of every graph
    code = cli_module.main(
        ["verify", "--theorem", "TH11", "--random", "1", "--size", "21", "--workers", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: MIS enumeration limited to 20 vertices, got 21\n"
    assert generated == []


@pytest.fixture
def checked_orders(monkeypatch):
    """The order of each graph that a sweep checks in this process: a
    sweep computes every graph's flags and builds the reports of a graph
    with a failing check, and verify --graph builds its graph's reports."""
    checked = []
    flags = theorems_module._flags
    check_graph = theorems_module._check_graph

    def counted_flags(g, tids, budgets):
        checked.append(g.n)
        return flags(g, tids, budgets)

    def counted_reports(g, gid, tids, budgets):
        checked.append(g.n)
        return check_graph(g, gid, tids, budgets)

    monkeypatch.setattr(theorems_module, "_flags", counted_flags)
    monkeypatch.setattr(theorems_module, "_check_graph", counted_reports)
    return checked


@pytest.mark.parametrize(
    "budget, message",
    [
        (["--max-n", "8"], "subset sweep limited to 20 vertices, got 21"),
        (["--max-n", "3", "--max-subset-n", "9"], "subset sweep limited to 9 vertices, got 11"),
    ],
)
def test_verify_kernel_gap_refuses_the_subset_budget_before_the_first_graph(
    capsys, checked_orders, budget, message
):
    # kernel_gap_family(k) has 2k + 5 vertices
    code = cli_module.main(
        ["verify", "--theorem", "TH2A", "--family", "kernel-gap", *budget, "--workers", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert checked_orders == []
    # the hook sees every graph of a run within the budget
    code = cli_module.main(
        ["verify", "--theorem", "TH2A", "--family", "kernel-gap", "--max-n", "2", "--workers", "1"]
    )
    assert code == 0
    assert "graphs tested: 2\n" in capsys.readouterr().out
    assert checked_orders == [7, 9]


@pytest.mark.parametrize(
    "budget, message",
    [
        (["--theorem", "TH2A", "--max-subset-n", "9"], "subset sweep limited to 9 vertices, got 10"),
        (["--theorem", "TH11", "--max-enum-n", "9"], "MIS enumeration limited to 9 vertices, got 10"),
    ],
)
def test_verify_fixtures_refuse_their_budgets_before_the_first_graph(
    capsys, checked_orders, budget, message
):
    # the fixtures in order have 7 and then 10 vertices
    code = cli_module.main(["verify", *budget, "--family", "fixtures", "--workers", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert checked_orders == []
    # the hook sees every fixture of a run within the budgets
    code = cli_module.main(["verify", *budget[:2], "--family", "fixtures", "--workers", "1"])
    assert code == 0
    assert "graphs tested: 15\n" in capsys.readouterr().out
    assert checked_orders == [fixture(name).n for name in FIXTURE_NAMES]


def test_search_problem_1_refuses_the_subset_budget_before_the_first_graph(
    monkeypatch, capsys
):
    swept = []
    bruteforce = theorems_module.critical_difference_bruteforce

    def counted(g, budgets):
        swept.append(g.n)
        return bruteforce(g, budgets)

    monkeypatch.setattr(theorems_module, "critical_difference_bruteforce", counted)
    code = cli_module.main(["search", "--problem", "1", "--max-n", "12", "--max-subset-n", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: subset sweep limited to 9 vertices, got 10\n"
    assert swept == []
    # n <= 3 holds only the triangle, which is not KE: nothing is swept
    code = cli_module.main(["search", "--problem", "1", "--max-n", "3", "--max-subset-n", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "examined: 0\n" in captured.out
    assert swept == []


def test_search_problem_1_golden():
    res = run_cli("search", "--problem", "1", "--max-n", "6")
    assert res.returncode == 0
    assert "examined: 10\ncore=ker: 5\ncore!=ker: 5\n" in res.stdout
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
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'pickle') "
        "if m in sys.modules])"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "--graph", str(FIXDIR / "p3.txt"), "--max-n", "5", "--size", "9",
          "--seed", "4"], "--max-n"),
        (["verify", "--family", "fixtures", "--max-n", "3", "--size", "9"], "--max-n"),
        (["verify", "--random", "2", "--size", "4", "--max-n", "3"], "--max-n"),
        (["verify", "--family", "trees", "--max-n", "3", "--size", "9"], "--size"),
        (["verify", "--family", "fixtures", "--seed", "0"], "--seed"),
        (["generate", "--fixture", "p2", "--n", "7", "--seed", "3"], "--n"),
        (["generate", "--fixture", "p2", "--seed", "0"], "--seed"),
        (["generate", "--family", "kernel-gap", "--k", "2", "--seed", "1"], "--seed"),
        (["generate", "--random-unicyclic", "--n", "5", "--k", "2"], "--k"),
    ],
)
def test_an_option_of_another_source_is_refused(capsys, argv, option):
    if argv[0] == "verify":
        argv = [*argv, "--theorem", "MAIN", "--workers", "1"]
    assert cli_module.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {option} needs ")


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


def _pinned_runs():
    """The argv of each run whose stdout is pinned, verify at --workers 1.
    A --graph file is named relative to the fixture directory, since verify
    prints the path it was given."""
    files = [f"{name}.txt" for name in FIXTURE_NAMES]
    verify = ["verify", "--theorem", "all", "--workers", "1"]
    return [
        *([*verify, "--family", family, "--max-n", n] for family, n in
          (("unicyclic", "9"), ("trees", "9"), ("connected", "6"), ("kernel-gap", "4"))),
        [*verify, "--family", "fixtures"],
        *([*verify, "--graph", f] for f in files),
        *(["analyze", "--format", "json", f] for f in files),
        ["search", "--problem", "1", "--max-n", "9"],
        ["search", "--problem", "2", "--max-n", "9"],
        ["search", "--problem", "2", "--family", "connected", "--max-n", "6"],
        ["generate", "--fixture", "uni10-nonke"],
        ["generate", "--family", "kernel-gap", "--k", "3"],
        ["generate", "--random-unicyclic", "--n", "12", "--seed", "5"],
        *([*command, "--help"] for command in ([], ["analyze"], ["verify"], ["search"],
                                                ["generate"])),
    ]


def _stdout_digests(capsys):
    """{argv joined by spaces: [exit code, sha256 of stdout]} of the pinned
    runs, each through cli.main in-process; argparse exits from --help."""
    out = {}
    for argv in _pinned_runs():
        try:
            code = cli_module.main(argv)
        except SystemExit as exc:
            code = exc.code
        text = capsys.readouterr().out
        out[" ".join(argv)] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


# Recorded before the leaf peel gave the tree centres. A change that alters
# stdout on purpose records them again and lists each changed run in CHANGES.md.
_PINNED_DIGESTS = {
    "verify --theorem all --workers 1 --family unicyclic --max-n 9":
        [0, "fc5867f4650332fb99b99e73f8967f53fe931002497ee41548e05f7f925c0beb"],
    "verify --theorem all --workers 1 --family trees --max-n 9":
        [0, "136cafdebfd0eac9ec9f5c6e9ce645313d2aad1ac5036192c1ff9167f7ac5cfc"],
    "verify --theorem all --workers 1 --family connected --max-n 6":
        [0, "d2e2b2da8e4434df5e1fa299a5f524f24fc7594f9a04dad58a4c5c5611ad2657"],
    "verify --theorem all --workers 1 --family kernel-gap --max-n 4":
        [0, "4409570a41cc121c6f1ab5e4bc2ab6f908b37f334230ad1df6e58d0816938fd3"],
    "verify --theorem all --workers 1 --family fixtures":
        [0, "ddc9356ab9ed868aa5967923cd85c5fc75515e303b2a63f45958d04eb4675083"],
    "verify --theorem all --workers 1 --graph uni7-ke.txt":
        [0, "39cc457ef7573ec4afd15b4dd0091129e44da8f42792e4e7cb1a11a5e205dede"],
    "verify --theorem all --workers 1 --graph uni10-nonke.txt":
        [0, "d1544785c38d276208ae8cb99d77e00498867b213f40bdbdd94f0ac48460d847"],
    "verify --theorem all --workers 1 --graph tree5-pendant.txt":
        [0, "e478c09243e361e046e4c342e47ee2c9de68e9c4df134ffe49a1fc0d3967986d"],
    "verify --theorem all --workers 1 --graph uni9-ke.txt":
        [0, "5dff3648dae8ad10221eacab07a1b2aed6c1d16ced349a10eb5d570845dc9884"],
    "verify --theorem all --workers 1 --graph uni7-ke-kereq.txt":
        [0, "c77eefee51bda49ba92bdb61f4040282e68d5c1abffe12eba4a6844e38748b72"],
    "verify --theorem all --workers 1 --graph bicyclic10-nonke.txt":
        [0, "ad939ac1be51498f3d1c172e65abbbb9fa9cdc75daf20c7765ffd37abfcd5dbb"],
    "verify --theorem all --workers 1 --graph uni8-nonke.txt":
        [0, "a31ea8c768b4be8e490c1a4b1ae7b24e44e3e69f71328a60527858f8255f2880"],
    "verify --theorem all --workers 1 --graph bicyclic10-ke.txt":
        [0, "2dec8ce3ba09e5e7fcd0a121697b76bf5e94f3629c716e446e02dda738bbd12e"],
    "verify --theorem all --workers 1 --graph bicyclic9-nonke.txt":
        [0, "e132ad91de3f54ab39569465ffab19f46bde98a6f157de5b4336897773262845"],
    "verify --theorem all --workers 1 --graph p2.txt":
        [0, "ca923b4f5972ce56c1f524f4e3602ce6148fda3680636caae20c00184487675f"],
    "verify --theorem all --workers 1 --graph p3.txt":
        [0, "a551ec1d3fb9bc874f53cbf776dbaf27b433626d7d409d5a29338c37dd86c382"],
    "verify --theorem all --workers 1 --graph c4.txt":
        [0, "95bff367b802141f5c95dc4f1608b278dc66a6b06164bebf77a769968e9559e8"],
    "verify --theorem all --workers 1 --graph c5.txt":
        [0, "8b157ce93a6d575e1bf2542139c50144c5ea910ec32259fa270e9a64395760bc"],
    "verify --theorem all --workers 1 --graph k1.txt":
        [0, "5d9eed1d024e7e08b46fcacc353218ea15ef7d25c8caa754a26dec49d69b7431"],
    "verify --theorem all --workers 1 --graph k3.txt":
        [0, "22a84b8e36c4079e2f552d6db99667ac5de21796a7fafefdb4edbf4391d433a0"],
    "analyze --format json uni7-ke.txt":
        [0, "de8ea0263f27d3e3be4353936e92ae12d05f7cd7914edc89a0773ecff0a33ce5"],
    "analyze --format json uni10-nonke.txt":
        [0, "b1af4d88e43781b49ea9c5da103547a65d932c58b4886a8e37d1103a69add5c8"],
    "analyze --format json tree5-pendant.txt":
        [0, "33d9fa40cb187340074a638c76437cc78fb58ec792fe1b316f8947135fae9853"],
    "analyze --format json uni9-ke.txt":
        [0, "b807d8f3a822d88034ad0b7df4027f4b400fec57403735c61995131ab7c149b3"],
    "analyze --format json uni7-ke-kereq.txt":
        [0, "0e1d7397594582790abc00a4ce77c9dae7e251e247a6b8869b5baf7154da1aa2"],
    "analyze --format json bicyclic10-nonke.txt":
        [0, "a9fa7730ca9c8efd1c017e1e7a22305ce7a8d4639a720931fc478682e5f673b5"],
    "analyze --format json uni8-nonke.txt":
        [0, "9c1cb31c7cd01080099a77b4686521e89e4e90a50cc7d6cf4c95cc0cf6c637dc"],
    "analyze --format json bicyclic10-ke.txt":
        [0, "ff0eba6ce1780627264f417ceb2f53a6fdc8f4dad7c5eeb4056a2bf1ca6f7c5b"],
    "analyze --format json bicyclic9-nonke.txt":
        [0, "00eae9f50ea5c239ff9b4482edbfe2d18715695ccd2702981047b7bb0ae7a15d"],
    "analyze --format json p2.txt":
        [0, "27dc67305c2ea092b7c25936a95b91040e77caa31d486614c409ebd4d70bf2cf"],
    "analyze --format json p3.txt":
        [0, "411a9a08f6498c13a6d9f145cc9b480e6db1bda14555a883eb7336c602a67f23"],
    "analyze --format json c4.txt":
        [0, "f6fe004b835b9f041de6ccd112f533b5d915ad64bcfeb653fd83efacd62a7828"],
    "analyze --format json c5.txt":
        [0, "d1377ca2138d36b765573c43c5fecfe68c3af916c68ebf764dea8aba6090eafe"],
    "analyze --format json k1.txt":
        [0, "c586072642d2dabb318bc598f7c8368a7440aad980d4ffb04dd11fd1baf04336"],
    "analyze --format json k3.txt":
        [0, "ddb79aabc0d42a332cb59ffcb86b593cc5cdd8da970bf5de2449170012c5b29a"],
    "search --problem 1 --max-n 9":
        [0, "bc74f693670c226ff3df2c4b28e5fd1fd7a44e433c4765494f18908852298303"],
    "search --problem 2 --max-n 9":
        [0, "6fd3dab0e71ef80d54f13d2f035b9a81a4349c6bc2bb94edb10eea02738f5e58"],
    "search --problem 2 --family connected --max-n 6":
        [0, "d3b9f9165730a503fd1725eff343c9c19fc1c8b8aa77a51c8b8ab2add6e4fadc"],
    "generate --fixture uni10-nonke":
        [0, "fa27073e501bcdb27faa286a1401f3b12e07923af62abee4d1b83acfca26d69b"],
    "generate --family kernel-gap --k 3":
        [0, "ecf26b08fae822960947f56ca574b09a1783186811d661f91907bde569a5f530"],
    "generate --random-unicyclic --n 12 --seed 5":
        [0, "aefc2a7d9ee1c9ce103076d78ef1560e91d85b8ed1b2c5ed4feb37090f7fffd2"],
    # the help texts, recorded while the parser still spelled out the budget
    # defaults, at 80 columns (argparse wraps them to the terminal's width)
    "--help":
        [0, "fde12170b58f810fd70b1a029b74ecc9b1a4495d6db1945d93709d2b5feba6aa"],
    "analyze --help":
        [0, "b048456ab97b63ea5707684d13b8e36bd6c11bc6736f5e1ad90732b28f58b514"],
    "verify --help":
        [0, "c9ce2c8bf9691724e79366b36772fe936dd808e5fdf13dfcca14323a96671e98"],
    "search --help":
        [0, "9175f6a4d7c75d7ad76e09b1a89b32f97a684edbba619e0c9a87bbe1e2f048c8"],
    "generate --help":
        [0, "77d4692beea58d7045debb04e1a07c404819f4bc98dd66f1f6c22262e37f8bd3"],
}


def test_stdout_digests_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(FIXDIR)
    monkeypatch.setenv("COLUMNS", "80")
    assert _stdout_digests(capsys) == _PINNED_DIGESTS


# -- fuzzed input files ----------------------------------------------------------
#
# Each perturbation maps (rng, lines) to new lines, the lines of a file's bytes
# split at b"\n". The neutral ones leave the parsed graph as it was.


def _pick(rng, lines):
    """The index of a random line with two tokens, or None."""
    edges = [i for i, line in enumerate(lines) if len(line.split()) == 2]
    return rng.choice(edges) if edges else None


def _crlf(rng, lines):
    return [line + b"\r" if line else line for line in lines]


def _blank_lines(rng, lines):
    out = list(lines)
    for _ in range(rng.randint(1, 3)):
        out.insert(rng.randint(0, len(out)), rng.choice([b"", b"  ", b"\t"]))
    return out


def _trailing_comments(rng, lines):
    return [line + b"  # note" if line and rng.random() < 0.5 else line for line in lines]


def _tabs(rng, lines):
    return [b"\t" + line.replace(b" ", b"\t\t") + b"\t" for line in lines]


def _nul(rng, lines):
    i = rng.randrange(len(lines))
    k = rng.randint(0, len(lines[i]))
    return lines[:i] + [lines[i][:k] + b"\x00" + lines[i][k:]] + lines[i + 1:]


def _non_utf8(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i] + [lines[i] + bytes([rng.randint(0x80, 0xFF)])] + lines[i + 1:]


def _relabel(rng, lines, label):
    i = _pick(rng, lines)
    if i is None:
        return lines
    old = lines[i].split()[rng.randint(0, 1)]
    return [b" ".join(label if tok == old else tok for tok in line.split()) for line in lines]


def _long_label(rng, lines):
    return _relabel(rng, lines, b"x" * rng.randint(1000, 5000))


def _non_ascii_label(rng, lines):
    chars = ["\u00e9", "\u03bb", "\u4e2d", "\U0001f600", "\u2028", "\u00a0", "\u0085"]
    return _relabel(rng, lines, "".join(rng.choices(chars, k=rng.randint(1, 4))).encode())


def _duplicate_edge(rng, lines):
    i = _pick(rng, lines)
    if i is None:
        return lines
    a, b = lines[i].split()
    return lines + [rng.choice([a + b" " + b, b + b" " + a])]


def _self_loop(rng, lines):
    i = _pick(rng, lines)
    if i is None:
        return lines
    a = lines[i].split()[0]
    return lines + [a + b" " + a]


_NEUTRAL = (_crlf, _blank_lines, _trailing_comments, _tabs)
_HOSTILE = (_nul, _non_utf8, _long_label, _non_ascii_label, _duplicate_edge, _self_loop)


def _main(argv, capsys):
    """Exit code and stdout of one in-process run of the CLI."""
    try:
        code = cli_module.main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv}: {exc!r} escaped main")
    return code, capsys.readouterr().out


def _perturbed_fixtures(rng):
    """600 (label, fixture name, data, neutral) cases: a fixture under one or
    two neutral edits, and in half of the cases one or two hostile ones."""
    for case in range(600):
        name = rng.choice(FIXTURE_NAMES)
        lines = fixture_text(name).encode().split(b"\n")
        neutral = rng.random() < 0.5
        steps = rng.sample(_NEUTRAL, rng.randint(1, 2))
        if not neutral:
            steps += rng.sample(_HOSTILE, rng.randint(1, 2))
        for step in steps:
            lines = step(rng, lines)
        data = b"\n".join(lines)
        bom = rng.random() < 0.3
        if bom:
            data = b"\xef\xbb\xbf" + data
        label = f"case {case}: {[s.__name__ for s in steps]} bom={bom} on {name}"
        yield label, name, data, neutral


def _random_bytes(rng):
    """400 (label, name, data, neutral) cases of bytes of any value, or lines
    of two tokens of random bytes drawn mostly from letters, so that some of
    them parse; half of them follow a fixture's first lines, a header that
    parses on its own."""
    pool = b"abcdefghijklmnopqrstuvwxyz" + b"#\t\r\x00\x85\xa9\xc3\xff"
    for case in range(400):
        if rng.random() < 0.5:
            data = rng.randbytes(rng.randint(0, 120))
        else:
            data = b"\n".join(
                bytes(rng.choices(pool, k=rng.randint(1, 2))) + b" "
                + bytes(rng.choices(pool, k=rng.randint(1, 2)))
                for _ in range(rng.randint(1, 12))
            )
        header = rng.random() < 0.5
        if header:
            lines = fixture_text(rng.choice(FIXTURE_NAMES)).encode().split(b"\n")
            data = b"\n".join(lines[: rng.randint(1, len(lines))]) + b"\n" + data
        yield f"bytes {case}: header={header} {data[:60]!r}", "bytes", data, False


def test_fuzzed_inputs_exit_0_2_or_3(tmp_path, capsys):
    (tmp_path / "orig").mkdir()
    (tmp_path / "case").mkdir()
    expected = {}
    for name in FIXTURE_NAMES:
        orig = tmp_path / "orig" / f"{name}.txt"
        orig.write_text(fixture_text(name))
        expected[name] = _main(["analyze", str(orig)], capsys)
        assert expected[name][0] == 0
    codes = {}
    cases = itertools.chain(
        _perturbed_fixtures(random.Random(18)), _random_bytes(random.Random(21))
    )
    for label, name, data, neutral in cases:
        path = tmp_path / "case" / f"{name}.txt"
        path.write_bytes(data)
        analyzed = _main(["analyze", str(path)], capsys)
        verified = _main(["verify", "--theorem", "all", "--graph", str(path)], capsys)
        assert analyzed[0] in (0, 2, 3) and verified[0] in (0, 2, 3), label
        if neutral:
            assert analyzed == expected[name], label
            assert verified[0] == 0, label
        for code in (analyzed[0], verified[0]):
            codes[code] = codes.get(code, 0) + 1
    # both accepted and refused inputs were generated
    assert codes.get(0) and codes.get(2)


# Each forced failure with the failure block the command printed before TH1
# and TH11 checked their certificates on index pairs; the second TH1 case
# fails on a matching after the first in sorted order.
_FORCED_FAILURES = [
    ("TH1", "uni7-ke", "ke_core", lambda f: f.g.set_of(["u"]),
     "TH1 uni7-ke applicable=true holds=false core={u} n_core={a, b, c}\n",
     "failure: TH1 on uni7-ke\n"
     "  matching: [a-u, c-v, x-y]\n  vertex: b\n  matched_to: -\n"),
    ("TH1", "uni7-ke-kereq", "ke_core", lambda f: f.g.set_of(["x", "y"]),
     "TH1 uni7-ke-kereq applicable=true holds=false core={x, y} n_core={p1, p2}\n",
     "failure: TH1 on uni7-ke-kereq\n"
     "  matching: [p1-x, p2-z, q1-q2]\n  vertex: p2\n  matched_to: z\n"),
    ("TH11", "uni7-ke", "mis_corona",
     lambda f: (f.mis_family[0] | f.mis_family[1]) - f.g.set_of(["x"]),
     "TH11 uni7-ke applicable=true holds=false mis_count=2\n",
     "failure: TH11 on uni7-ke\n"
     "  S: {a, b, c, y}\n  sources: {y}\n  targets: {}\n"),
]


@pytest.mark.parametrize("tid, name, attr, value, report, failure", _FORCED_FAILURES,
                         ids=["th1-first", "th1-later", "th11"])
def test_forced_certificate_failures_print_as_before(
    monkeypatch, capsys, tid, name, attr, value, report, failure
):
    monkeypatch.setattr(theorems_module._Facts, attr, property(value))
    path = FIXDIR / f"{name}.txt"
    code = cli_module.main(["verify", "--theorem", tid, "--graph", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    edges = "".join(f"  | {line}\n" for line in serialize(fixture(name)).splitlines())
    assert out == (
        f"{report}family: file:{path}\ntheorems: {tid}\ngraphs tested: 1\nchecks run: 1\n"
        f"checks applicable: 1\nfailures: 1\n{failure}{edges}result: counterexample found\n"
    )


def test_forced_th1_failure_lists_the_maximum_matchings_once(monkeypatch, capsys):
    # the counterexample comes from the family the check already listed
    tid, name, attr, value, _, failure = _FORCED_FAILURES[0]
    monkeypatch.setattr(theorems_module._Facts, attr, property(value))
    listed = []
    for module in (theorems_module, matching_module):
        def counted(g, budgets, real=module._maximum_matching_pairs):
            listed.append(g)
            return real(g, budgets)
        monkeypatch.setattr(module, "_maximum_matching_pairs", counted)
    code = cli_module.main(["verify", "--theorem", tid, "--graph", str(FIXDIR / f"{name}.txt")])
    assert code == 1
    assert failure in capsys.readouterr().out
    assert len(listed) == 1


def test_th1_report_counts_the_maximum_matchings(capsys):
    # the verdict lists no matching; the printed report still counts them
    path = FIXDIR / "uni7-ke.txt"
    assert cli_module.main(["verify", "--theorem", "TH1", "--graph", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "TH1 uni7-ke applicable=true holds=true core={a, b, c} n_core={u, v} maximum_matchings=2"
    )


_ELAPSED = r"elapsed: \d+\.\d{3}s"
_SWEEP = ["verify", "--theorem", "all"]

# (argv, exit code, last stderr line as a regex or None for no stderr, a
# stdout line that must appear or None)
_AT_BOUNDS = [
    (_SWEEP + ["--family", "unicyclic", "--max-n", "3", "--max-enum-n", "0"], 3,
     r"error: unicyclic enumeration limited to n <= 0", None),
    (_SWEEP + ["--family", "unicyclic", "--max-n", "4", "--matching-limit", "0"], 3,
     r"error: more than 0 maximum matchings", None),
    # C4 has 2 maximum matchings, the most of any unicyclic graph up to n = 4
    (_SWEEP + ["--family", "unicyclic", "--max-n", "4", "--matching-limit", "1"], 3,
     r"error: more than 1 maximum matchings", None),
    (_SWEEP + ["--family", "unicyclic", "--max-n", "4", "--matching-limit", "2"], 0,
     _ELAPSED, "graphs tested: 3"),
    (_SWEEP + ["--family", "trees", "--max-n", "0"], 0, _ELAPSED, "graphs tested: 0"),
    (_SWEEP + ["--family", "connected", "--max-n", "0"], 0, _ELAPSED, "graphs tested: 0"),
    (_SWEEP + ["--family", "kernel-gap", "--max-n", "0"], 0, _ELAPSED, "graphs tested: 0"),
    (_SWEEP + ["--random", "1", "--size", "0"], 2, r"error: need n >= 1, got 0", None),
    (_SWEEP + ["--random", "1", "--size", "-1"], 2, r"error: need n >= 1, got -1", None),
    (_SWEEP + ["--random", "2", "--size", "0", "--workers", "2"], 2,
     r"error: need n >= 1, got 0", None),
    (_SWEEP + ["--random", "1", "--size", "1"], 0, _ELAPSED, "graphs tested: 1"),
    (["search", "--problem", "1", "--max-n", "0"], 0, None, "examined: 0"),
    (["search", "--problem", "2", "--max-n", "0"], 0, None, "max_n: 0"),
    (["generate", "--random-unicyclic", "--n", "2"], 2,
     r"error: unicyclic graphs need n >= 3, got 2", None),
    (["generate", "--family", "kernel-gap", "--k", "0"], 2,
     r"error: family index must be >= 1, got 0", None),
    (["analyze", str(FIXDIR / "k1.txt"), "--max-enum-n", "0", "--max-subset-n", "0",
      "--matching-limit", "0"], 0, None, "ker: {w}"),
]


def _bound_id(argv):
    return " ".join(Path(a).stem if a.endswith(".txt") else a for a in argv
                    if a not in ("--theorem", "all"))


@pytest.mark.parametrize("argv, code, last_err, out_line", _AT_BOUNDS,
                         ids=[_bound_id(case[0]) for case in _AT_BOUNDS])
def test_option_values_at_their_bounds(capsys, argv, code, last_err, out_line):
    assert cli_module.main(argv) == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if last_err is None:
        assert err == []
    else:
        assert re.fullmatch(last_err, err[-1]), err
    if out_line is not None:
        assert out_line in captured.out.splitlines()
    if code == 0 and argv[0] == "verify":
        assert "result: all hold" in captured.out
