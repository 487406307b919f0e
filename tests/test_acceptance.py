"""Acceptance gate: the eight shipping criteria, one test each.

Every test prints one ACCEPTANCE line (also echoed in the terminal summary)
and then asserts. Criterion 6 contains a recorded closed-form clause that
exhaustive enumeration contradicts; it is asserted exactly as recorded, so
that clause is expected to stay red. All supporting truth for it (the
enumerated gap values) is asserted green in test_corpus.py.
"""

import subprocess
import sys
import time
from pathlib import Path

from corekit import (
    alpha,
    core,
    corona,
    critical_difference,
    critical_difference_bruteforce,
    is_koenig_egervary,
    ker,
    kernel_gap_family,
    mu,
    random_connected,
    structural_core,
    structural_corona,
    structural_ker,
    sweep,
)
from corekit.cli import _analysis_record
from corekit.budgets import DEFAULT_BUDGETS

from helpers import (
    oracle_alpha,
    oracle_core,
    oracle_corona,
    oracle_ker,
    oracle_mu,
    record_acceptance,
)

REPO = Path(__file__).resolve().parent.parent
FIXDIR = REPO / "src" / "corekit" / "fixtures"


def _rec(name, g):
    return _analysis_record(name, g, DEFAULT_BUDGETS)


def test_criterion_1_fixture_regression(all_fixtures):
    t0 = time.perf_counter()
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    r = _rec("uni7-ke", all_fixtures["uni7-ke"])
    expect(r["alpha"] == 4, "uni7-ke alpha")
    expect(r["mu"] == 3, "uni7-ke mu")
    expect(r["ke"] is True, "uni7-ke ke")

    r = _rec("uni10-nonke", all_fixtures["uni10-nonke"])
    expect(r["ke"] is False, "uni10-nonke non-KE")
    expect(set(r["unicyclic"]["cycle"]) == {"y", "d", "t", "c", "w"}, "uni10-nonke cycle")

    r = _rec("uni9-ke", all_fixtures["uni9-ke"])
    expect(r["core"] == ["a", "b", "c"], "uni9-ke core")
    expect(r["ker"] == ["a", "b"], "uni9-ke ker")

    r = _rec("uni7-ke-kereq", all_fixtures["uni7-ke-kereq"])
    expect(r["core"] == ["x", "y", "z"], "uni7-ke-kereq core")
    expect(r["ker"] == ["x", "y", "z"], "uni7-ke-kereq ker")

    r = _rec("uni8-nonke", all_fixtures["uni8-nonke"])
    expect(r["core"] == ["x", "y"], "uni8-nonke core")

    r = _rec("bicyclic10-ke", all_fixtures["bicyclic10-ke"])
    expect(r["core"] == ["a", "b", "c"], "bicyclic10-ke core")
    expect(r["sum_defect"] == 0, "bicyclic10-ke sum defect")

    r = _rec("bicyclic9-nonke", all_fixtures["bicyclic9-nonke"])
    expect(r["core"] == [], "bicyclic9-nonke core")
    expect(r["sum_defect"] == 1, "bicyclic9-nonke sum defect")

    elapsed = time.perf_counter() - t0
    expect(elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s")
    ok = not problems
    record_acceptance(
        1, ok, f"7 fixture analyses reproduce recorded values in {elapsed:.2f}s"
        + ("" if ok else f"; wrong: {problems}")
    )
    assert ok, problems


def test_criterion_2_sum_defect_dichotomy(unicyclic_by_n):
    t0 = time.perf_counter()
    tested = 0
    bad = []
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            tested += 1
            a = alpha(g)
            defect = len(corona(g)) + len(core(g)) - 2 * a
            want = 0 if is_koenig_egervary(g) else 1
            if defect != want:
                bad.append((n, defect, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300 and tested == 143
    record_acceptance(
        2, ok,
        f"sum defect is 0 on KE / 1 on non-KE for all {tested} unicyclic graphs "
        f"(3 <= n <= 8) in {elapsed:.1f}s" + ("" if ok else f"; bad: {bad[:3]}")
    )
    assert ok, bad[:5]


def test_criterion_3_structural_equals_bruteforce(unicyclic_by_n):
    t0 = time.perf_counter()
    tested = 0
    bad = []
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            if is_koenig_egervary(g):
                continue
            tested += 1
            sc = frozenset(structural_core(g).labels())
            sr = frozenset(structural_corona(g).labels())
            sk = frozenset(structural_ker(g).labels())
            if sc != oracle_core(g) or sr != oracle_corona(g) or sk != oracle_ker(g):
                bad.append(("oracle mismatch", n))
            if sk != sc:
                bad.append(("ker != core", n))
    elapsed = time.perf_counter() - t0
    ok = not bad and tested > 0
    record_acceptance(
        3, ok,
        f"structural core/corona/ker match brute force and ker = core on all "
        f"{tested} non-KE unicyclic graphs (n <= 8) in {elapsed:.1f}s"
        + ("" if ok else f"; bad: {bad[:3]}")
    )
    assert ok, bad[:5]


def _random_items(count, max_n, tag):
    items = []
    for i in range(count):
        n = 3 + i % (max_n - 2)
        items.append((f"{tag}:{i}", random_connected(n, f"{tag}:{i}")))
    return items


def test_criterion_4_unicyclic_theorem_suite(unicyclic_by_n):
    t0 = time.perf_counter()
    uni = [(f"uni:n{n}:{i}", g) for n in range(3, 9) for i, g in enumerate(unicyclic_by_n[n])]
    s1 = sweep(uni, ("LEM1A", "LEM1B", "LEM2", "TH3", "TH12"), family="unicyclic<=8")
    randoms = _random_items(500, 10, "accept4")
    s2 = sweep(uni + randoms, ("TH11", "TH1"), family="unicyclic<=8+random<=10")
    elapsed = time.perf_counter() - t0
    ok = (
        s1.failures == () and s2.failures == ()
        and s1.checks_applicable > 0 and s2.checks_applicable > 0
    )
    record_acceptance(
        4, ok,
        f"LEM1A/LEM1B/LEM2/TH3/TH12 clean on {s1.graphs_tested} unicyclic graphs; "
        f"TH11/TH1 clean on {s2.graphs_tested} graphs "
        f"({s2.checks_applicable} applicable checks) in {elapsed:.1f}s"
        + ("" if ok else f"; failures: {len(s1.failures) + len(s2.failures)}")
    )
    assert ok, (s1.failures[:2], s2.failures[:2])


def test_criterion_5_background_theorem_fuzz(connected_by_n, trees_by_n):
    t0 = time.perf_counter()
    randoms = _random_items(1000, 12, "accept5")
    exhaustive = [
        (f"conn:n{n}:{i}", g)
        for n in range(1, 8)
        for i, g in enumerate(connected_by_n[n])
    ]
    s1 = sweep(randoms + exhaustive, ("ZHANG", "TH2A"), family="random<=12+connected<=7")
    trees = [
        (f"tree:n{n}:{i}", g)
        for n in range(1, 10)
        for i, g in enumerate(trees_by_n[n])
    ]
    s2 = sweep(trees, ("TH2B",), family="trees<=9")
    elapsed = time.perf_counter() - t0
    ok = s1.failures == () and s2.failures == () and elapsed < 600
    record_acceptance(
        5, ok,
        f"ZHANG/TH2A clean on {s1.graphs_tested} graphs, TH2B clean on "
        f"{s2.graphs_tested} trees in {elapsed:.1f}s"
        + ("" if ok else f"; failures: {len(s1.failures) + len(s2.failures)}")
    )
    assert ok, (s1.failures[:2], s2.failures[:2])


def test_criterion_6_kernel_gap_family():
    t0 = time.perf_counter()
    problems = []
    mus = []
    for k in range(1, 7):
        g = kernel_gap_family(k)
        a = alpha(g)
        m = mu(g)
        mus.append(m)
        if a != k + 3:
            problems.append(f"k={k}: alpha={a} wants {k + 3}")
        if sorted(ker(g).labels()) != ["x", "z"]:
            problems.append(f"k={k}: ker={sorted(ker(g).labels())} wants ['x', 'z']")
        if a + m != g.n:
            problems.append(f"k={k}: alpha+mu={a + m} != n={g.n}, not KE")
        gap = len(core(g)) - len(ker(g))
        if gap != k - 1:
            problems.append(
                f"k={k}: |core|-|ker|={gap}, recorded closed form wants {k - 1}"
            )
    elapsed = time.perf_counter() - t0
    ok = not problems
    record_acceptance(
        6, ok,
        f"alpha/ker/KE hold for k=1..6 (mu values recorded, not asserted: {mus}); "
        f"|core|-|ker|=k-1 clause checked verbatim in {elapsed:.2f}s"
        + ("" if ok else f"; failing: {problems}")
    )
    assert ok, problems


def test_criterion_7_fast_path_gates(trees_by_n, unicyclic_by_n, connected_by_n):
    t0 = time.perf_counter()
    bad = []
    exhaustive = (
        [g for n in range(1, 9) for g in trees_by_n[n]]
        + [g for n in range(3, 9) for g in unicyclic_by_n[n]]
        + [g for n in range(1, 8) for g in connected_by_n[n]]
    )
    for g in exhaustive:
        if critical_difference(g) != critical_difference_bruteforce(g).d_c:
            bad.append(("d_c exhaustive", g.n))
    randoms = _random_items(500, 14, "accept7")
    for gid, g in randoms:
        if critical_difference(g) != critical_difference_bruteforce(g).d_c:
            bad.append(("d_c random", gid))
    checked_dc = len(exhaustive) + len(randoms)

    checked_am = 0
    for pool in (trees_by_n, unicyclic_by_n):
        for n, graphs in pool.items():
            if n > 12:
                continue
            for g in graphs:
                checked_am += 1
                if alpha(g) != oracle_alpha(g):
                    bad.append(("alpha", n))
                if mu(g) != oracle_mu(g):
                    bad.append(("mu", n))
    elapsed = time.perf_counter() - t0
    ok = not bad
    record_acceptance(
        7, ok,
        f"double-cover d_c matches brute force on {checked_dc} graphs; tree and "
        f"unicyclic alpha/mu match exhaustive search on {checked_am} graphs "
        f"(n <= 12) in {elapsed:.1f}s" + ("" if ok else f"; bad: {bad[:3]}")
    )
    assert ok, bad[:5]


def test_criterion_8_cli_determinism():
    t0 = time.perf_counter()

    def run(*args):
        res = subprocess.run(
            [sys.executable, "-m", "corekit", *args],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, (args, res.stderr)
        return res.stdout

    checks = []
    a1 = run("analyze", str(FIXDIR / "uni10-nonke.txt"))
    a2 = run("analyze", str(FIXDIR / "uni10-nonke.txt"))
    checks.append(("analyze reruns", a1 == a2))
    v = ["verify", "--theorem", "all", "--family", "unicyclic", "--max-n", "6"]
    v1 = run(*v, "--workers", "1")
    v2 = run(*v, "--workers", "2")
    v3 = run(*v, "--workers", "2")
    checks.append(("verify workers 1 vs 2", v1 == v2))
    checks.append(("verify reruns", v2 == v3))
    s1 = run("search", "--problem", "1", "--max-n", "6")
    s2 = run("search", "--problem", "1", "--max-n", "6")
    checks.append(("search reruns", s1 == s2))
    g1 = run("generate", "--random-unicyclic", "--n", "9", "--seed", "3")
    g2 = run("generate", "--random-unicyclic", "--n", "9", "--seed", "3")
    checks.append(("generate reruns", g1 == g2))
    elapsed = time.perf_counter() - t0
    bad = [name for name, same in checks if not same]
    ok = not bad
    record_acceptance(
        8, ok,
        f"stdout byte-identical across reruns and worker counts "
        f"({len(checks)} comparisons) in {elapsed:.1f}s"
        + ("" if ok else f"; differing: {bad}")
    )
    assert ok, bad
