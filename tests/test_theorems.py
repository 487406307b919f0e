"""Theorem checkers: spot values on named fixtures, corpus sweeps, failure
reporting/replay, and the counterexample searches."""

import concurrent.futures
import os

import pytest

from corekit import (
    BudgetExceededError,
    Budgets,
    DomainError,
    THEOREM_IDS,
    check,
    classify_sum_defect,
    family_items,
    fixture,
    kernel_gap_family,
    parse_edge_list,
    random_connected,
    search_problem1,
    sum_defect_histogram,
    sweep,
)
from corekit import theorems as theorems_module
from corekit.budgets import DEFAULT_BUDGETS


def test_theorem_catalog_is_stable():
    assert THEOREM_IDS == (
        "LEM1A",
        "LEM1B",
        "LEM2",
        "TH11",
        "TH1",
        "TH2A",
        "TH2B",
        "TH3",
        "TH4A",
        "TH4B",
        "TH12",
        "MAIN",
        "KERCORE",
        "ZHANG",
    )


def test_unknown_theorem_id():
    with pytest.raises(DomainError):
        check("NOPE", fixture("p3"))


def test_check_spot_values():
    g = fixture("uni10-nonke")
    rep = check("MAIN", g, "uni10-nonke")
    assert rep.applicable and rep.holds
    w = rep.witness_dict()
    assert w["sum"] == 11
    assert w["two_alpha"] == 10
    assert w["sum_defect"] == 1

    rep = check("TH4B", fixture("uni7-ke"), "uni7-ke")
    assert rep.applicable and rep.holds
    assert rep.witness_dict()["sum"] == 8

    rep = check("TH4B", g, "uni10-nonke")
    assert not rep.applicable
    assert rep.holds is None

    rep = check("TH2B", fixture("tree5-pendant"))
    assert rep.applicable and rep.holds
    rep = check("TH2B", fixture("c5"))
    assert not rep.applicable

    # MAIN reports the sum defect even where its hypotheses fail
    rep = check("MAIN", fixture("bicyclic9-nonke"), "bicyclic9-nonke")
    assert not rep.applicable
    assert rep.witness_dict()["sum_defect"] == 1


def test_every_theorem_holds_on_every_fixture(all_fixtures):
    items = list(all_fixtures.items())
    summary = sweep(items, THEOREM_IDS, family="fixtures")
    assert summary.graphs_tested == 15
    assert summary.checks_run == 210
    assert summary.checks_applicable == 113
    assert summary.failures == ()
    assert summary.all_hold()
    assert not summary.truncated
    assert summary.family == "fixtures"
    assert summary.elapsed >= 0


def _timeless(summary):
    return summary._replace(elapsed=0.0)


def test_sweep_worker_counts_agree(monkeypatch, all_fixtures):
    # two CPUs whatever the host has, so that workers=2 starts a pool
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    for family, items in (("fixtures", list(all_fixtures.items())),
                          ("unicyclic", list(family_items("unicyclic", max_n=8)))):
        seq = sweep(items, THEOREM_IDS, family=family, workers=1)
        par = sweep(items, THEOREM_IDS, family=family, workers=2)
        assert seq.graphs_tested == len(items)
        assert _timeless(par) == _timeless(seq), family


def _fails_on_even_n(f, gid):
    """A ZHANG checker that fails on every graph with an even vertex count."""
    n = f.g.n
    if n % 2:
        return theorems_module._report("ZHANG", gid, True, True, witness=(("n", n),))
    return theorems_module._report(
        "ZHANG", gid, True, False, witness=(("n", n),),
        counterexample=(("why", "forced for the test"), ("gid", gid)),
    )


def test_sweep_failures_agree_across_worker_counts(monkeypatch, all_fixtures):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    items = list(all_fixtures.items())
    tids = ("TH2A", "ZHANG", "MAIN")
    for fail_fast in (False, True):
        seq = sweep(items, tids, fail_fast=fail_fast, workers=1, family="forced")
        par = sweep(items, tids, fail_fast=fail_fast, workers=2, family="forced")
        assert _timeless(par) == _timeless(seq), fail_fast
        assert par.truncated == fail_fast
        # the pool sends each failing report back whole
        assert len(par.failures) == (1 if fail_fast else 6)
        for text, rep in par.failures:
            assert rep.witness_dict() == {"n": parse_edge_list(text).n}
            assert rep.counterexample_dict() == {"why": "forced for the test", "gid": rep.graph_id}
    # the first failure is ZHANG on the second fixture, so the count stops there
    assert (par.graphs_tested, par.checks_run) == (2, 5)


class _LazyFuture(concurrent.futures.Future):
    def __init__(self, fn, args):
        super().__init__()
        self.task = fn, args

    def result(self, timeout=None):
        if not self.done():
            fn, args = self.task
            self.set_result(fn(*args))
        return super().result(timeout)


class _LazyPool:
    """Stands in for ProcessPoolExecutor without starting a process: a task
    runs when its result is read, or at shutdown unless cancelled there, as
    in a pool whose workers have not reached it yet."""

    def __init__(self, max_workers, started):
        self.max_workers = max_workers
        self.tasks = []
        started.append(self)

    def submit(self, fn, *args):
        self.tasks.append(_LazyFuture(fn, args))
        return self.tasks[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        for future in self.tasks:
            if cancel_futures:
                future.cancel()
            else:
                future.result()


@pytest.fixture
def lazy_pools(monkeypatch):
    """The _LazyPools that sweep starts in place of process pools."""
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _LazyPool(max_workers, started))
    return started


def test_sweep_pool_is_capped_at_the_available_cpus(monkeypatch, lazy_pools, all_fixtures):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    items = list(family_items("unicyclic", max_n=7))
    one = sweep(items, THEOREM_IDS, workers=1)
    assert lazy_pools == []
    assert _timeless(sweep(items, THEOREM_IDS, workers=5000)) == _timeless(one)
    sweep(list(all_fixtures.items())[:2], THEOREM_IDS, workers=5000)
    assert [pool.max_workers for pool in lazy_pools] == [3, 2]


def test_fail_fast_sweep_cancels_the_chunks_not_started(monkeypatch, lazy_pools):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    seq = sweep(family_items("unicyclic", max_n=10), ("ZHANG",), fail_fast=True, workers=1)
    par = sweep(family_items("unicyclic", max_n=10), ("ZHANG",), fail_fast=True, workers=2)
    assert _timeless(par) == _timeless(seq)
    assert par.graphs_tested == 2
    (pool,) = lazy_pools
    # the chunks in flight when the first one was read; only that one ran
    assert len(pool.tasks) == 2 * theorems_module._CHUNKS_PER_WORKER
    assert [future.cancelled() for future in pool.tasks] == [False] + [True] * (len(pool.tasks) - 1)


def test_sweep_failure_reports_are_replayable(monkeypatch, all_fixtures):
    def always_fails(f, gid):
        return theorems_module._report(
            "ZHANG",
            gid,
            applicable=True,
            holds=False,
            counterexample=(("why", "forced for the test"),),
        )

    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", always_fails)
    items = [(name, all_fixtures[name]) for name in ["p2", "p3", "c4"]]
    summary = sweep(items, ("ZHANG", "TH2A"), family="forced")
    assert not summary.all_hold()
    assert len(summary.failures) == 3
    text, rep = summary.failures[0]
    assert rep.theorem_id == "ZHANG"
    assert rep.holds is False
    assert rep.counterexample_dict()["why"] == "forced for the test"
    # the serialization replays to the same verdict
    replayed = check("ZHANG", parse_edge_list(text), rep.graph_id)
    assert replayed.holds is False

    limited = sweep(items, ("ZHANG",), family="forced", fail_fast=True)
    assert limited.truncated
    assert len(limited.failures) == 1
    assert limited.graphs_tested < len(items)


def test_shared_record_changes_no_report(all_fixtures, trees_by_n, unicyclic_by_n, connected_by_n):
    items = list(all_fixtures.items())
    for corpus, tag, top in ((trees_by_n, "tree", 8), (unicyclic_by_n, "uni", 9),
                             (connected_by_n, "conn", 6)):
        for n in range(1, top + 1):
            items += [(f"{tag}:n{n}:{i}", g) for i, g in enumerate(corpus.get(n, ()))]
    items += [(f"kgap:{k}", kernel_gap_family(k)) for k in range(1, 4)]
    items += [(f"rand:{s}", random_connected(10, s)) for s in range(30)]
    for gid, g in items:
        shared = theorems_module._check_graph(g, gid, THEOREM_IDS, DEFAULT_BUDGETS)
        assert shared == [check(tid, g, gid) for tid in THEOREM_IDS], gid


def test_sweep_runs_each_primitive_once_per_graph(monkeypatch, unicyclic_by_n):
    graphs = [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    calls = {}

    def counted(name, fn):
        def wrapper(g, *args):
            key = (name, g.adj)
            calls[key] = calls.get(key, 0) + 1
            return fn(g, *args)
        return wrapper

    for name in ("critical_difference_bruteforce", "mu", "core", "corona", "enumerate_mis"):
        monkeypatch.setattr(theorems_module, name, counted(name, getattr(theorems_module, name)))
    alpha_active = theorems_module._alpha_active

    def counted_alpha(adj, active, budgets):
        if active == (1 << len(adj)) - 1:
            calls[("alpha", adj)] = calls.get(("alpha", adj), 0) + 1
        return alpha_active(adj, active, budgets)

    monkeypatch.setattr(theorems_module, "_alpha_active", counted_alpha)
    summary = sweep([(str(i), g) for i, g in enumerate(graphs)], THEOREM_IDS, workers=1)
    assert summary.graphs_tested == len(graphs) == 143
    assert summary.all_hold()
    for name in ("critical_difference_bruteforce", "mu", "core", "corona", "enumerate_mis",
                 "alpha"):
        assert [calls.get((name, g.adj)) for g in graphs] == [1] * len(graphs), name


def test_ke_checkers_read_core_and_corona_from_the_mis_family(monkeypatch):
    # K_{2,3} with a pendant path: bipartite, two independent cycles
    g = parse_edge_list(
        "a1 b1\na1 b2\na1 b3\na2 b1\na2 b2\na2 b3\nb3 p\np q\n"
    )
    tids = ("TH1", "TH2B", "TH4A", "TH4B", "TH2A", "MAIN")
    before = [check(tid, g, "k23p") for tid in tids]
    assert all(rep.applicable and rep.holds for rep in before[:5])

    def wrong(g, budgets):
        return g.full_set()

    monkeypatch.setattr(theorems_module, "core", wrong)
    monkeypatch.setattr(theorems_module, "corona", wrong)
    after = [check(tid, g, "k23p") for tid in tids]
    assert after[:4] == before[:4]
    # the other checkers still read core() and corona()
    assert after[4] != before[4] and after[5] != before[5]
    # and so do these four on a graph without such a component
    uni = fixture("uni7-ke")
    assert check("TH4A", uni, "u").holds is False


def test_sweep_over_generated_family_is_clean():
    items = family_items("unicyclic", max_n=6)
    summary = sweep(items, THEOREM_IDS, family="unicyclic(max_n=6)")
    assert summary.graphs_tested == 21
    assert summary.failures == ()


def test_witnesses_reverify():
    # saturating-matching witnesses are re-validated inside the checkers;
    # spot-check the reported pairing for one graph by hand
    g = fixture("uni9-ke")
    rep = check("TH11", g, "uni9-ke")
    assert rep.applicable and rep.holds
    g2 = fixture("uni7-ke")
    rep = check("TH1", g2, "uni7-ke")
    assert rep.applicable and rep.holds


def test_search_problem1_frozen_counts():
    rep = search_problem1(7)
    assert rep.max_n == 7
    assert rep.examined == 26
    assert len(rep.equal) == 18
    assert len(rep.different) == 8
    gid, text = rep.different[0]
    g = parse_edge_list(text)
    assert g.n <= 7
    # K3 alone is not KE, so nothing qualifies at n=3
    tiny = search_problem1(3)
    assert tiny.examined == 0
    assert tiny.equal == () and tiny.different == ()


def test_search_problem1_checks_the_limit_before_enumerating(monkeypatch):
    from corekit import corpus

    def never(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(corpus, "enumerate_unicyclic", never)
    with pytest.raises(BudgetExceededError, match="unicyclic enumeration limited to n <= 5"):
        search_problem1(6, Budgets(enum_n=5))


def test_sweep_of_one_graph_starts_no_process_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    summary = sweep([("p3", fixture("p3"))], THEOREM_IDS, workers=4)
    assert summary.graphs_tested == 1
    assert summary.all_hold()


def test_classify_sum_defect_anchors():
    assert classify_sum_defect(fixture("bicyclic10-ke")) == 0
    assert classify_sum_defect(fixture("bicyclic9-nonke")) == 1
    assert classify_sum_defect(fixture("uni7-ke")) == 0
    assert classify_sum_defect(fixture("uni10-nonke")) == 1


def test_sum_defect_histogram_on_small_unicyclic():
    counts, examples = sum_defect_histogram(family_items("unicyclic", max_n=6))
    assert counts == {0: 17, 1: 4}
    for d, bucket in examples.items():
        assert 1 <= len(bucket) <= 3
        for gid, text in bucket:
            assert classify_sum_defect(parse_edge_list(text)) == d
