"""Theorem checkers: spot values on named fixtures, corpus sweeps, failure
reporting/replay, and the counterexample searches."""

import os
import random
import signal
from collections import Counter

import pytest

from corekit import (
    BudgetExceededError,
    Budgets,
    DomainError,
    Graph,
    THEOREM_IDS,
    alpha,
    check,
    classify_ke_unicyclic,
    classify_shape,
    classify_sum_defect,
    decompose,
    is_koenig_egervary,
    family_items,
    fixture,
    kernel_gap_family,
    mu,
    parse_edge_list,
    random_connected,
    random_tree,
    search_problem1,
    serialize,
    sum_defect_histogram,
    sweep,
)
from corekit import independence as independence_module
from corekit import matching as matching_module
from corekit import theorems as theorems_module
from corekit import unicyclic as unicyclic_module
from corekit.budgets import DEFAULT_BUDGETS
from corekit.graph import _union


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


def test_sweep_worker_counts_agree(monkeypatch, forked_pids, all_fixtures):
    # two CPUs whatever the host has, so that workers=2 starts a pool
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    for family, items in (("fixtures", list(all_fixtures.items())),
                          ("unicyclic", list(family_items("unicyclic", max_n=8)))):
        seq = sweep(items, THEOREM_IDS, family=family, workers=1)
        par = sweep(items, THEOREM_IDS, family=family, workers=2)
        assert seq.graphs_tested == len(items)
        assert _timeless(par) == _timeless(seq), family
    assert len(forked_pids) == 2


def _fails_on_even_n(f):
    """A ZHANG checker that fails on every graph with an even vertex count."""
    return True, f.g.n % 2 == 1, (("n", f.g.n),), (("why", "forced for the test"),)


def test_sweep_failures_agree_across_worker_counts(monkeypatch, forked_pids, all_fixtures):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    items = list(all_fixtures.items())
    ids_by_text = {serialize(g): gid for gid, g in items}
    assert len(ids_by_text) == len(items)
    tids = ("TH2A", "ZHANG", "MAIN")
    for fail_fast in (False, True):
        seq = sweep(items, tids, fail_fast=fail_fast, workers=1, family="forced")
        par = sweep(items, tids, fail_fast=fail_fast, workers=2, family="forced")
        assert _timeless(par) == _timeless(seq), fail_fast
        assert par.truncated == fail_fast
        # each failing report is rebuilt whole from the graph
        assert len(par.failures) == (1 if fail_fast else 6)
        for text, rep in par.failures:
            assert rep.witness_dict() == {"n": parse_edge_list(text).n}
            assert rep.counterexample_dict() == {"why": "forced for the test"}
            assert rep.graph_id == ids_by_text[text]
    # the first failure is ZHANG on the second fixture, so the count stops there
    assert (par.graphs_tested, par.checks_run) == (2, 5)
    assert len(forked_pids) == 2


def test_this_process_checks_chunks_beside_its_worker(monkeypatch, forked_pids):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    here = []
    flags = theorems_module._flags

    def recording(g, tids, budgets):
        # a worker's calls land in its own copy of this list
        here.append(g)
        return flags(g, tids, budgets)

    items = list(family_items("unicyclic", max_n=10))
    seq = sweep(items, THEOREM_IDS, workers=1)
    monkeypatch.setattr(theorems_module, "_flags", recording)
    par = sweep(items, THEOREM_IDS, workers=2)
    assert _timeless(par) == _timeless(seq)
    # the 1040 graphs make 130 whole chunks
    assert here and len(here) % theorems_module._CHUNK == 0
    assert len(here) < len(items)
    assert len(forked_pids) == 1


def test_three_processes_agree_with_one(monkeypatch, forked_pids):
    def hung(signum, frame):
        raise TimeoutError("the sweep hung")

    # two workers and this process, more than the cores of a 2-CPU host
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 3)
    items = list(family_items("unicyclic", max_n=9))
    alarm = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        assert _timeless(sweep(items, THEOREM_IDS, workers=3)) == _timeless(
            sweep(items, THEOREM_IDS, workers=1))
        monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
        for fail_fast in (False, True):
            seq = sweep(items, THEOREM_IDS, fail_fast=fail_fast, workers=1)
            par = sweep(items, THEOREM_IDS, fail_fast=fail_fast, workers=3)
            assert _timeless(par) == _timeless(seq), fail_fast
            assert len(par.failures) == (1 if fail_fast else sum(g.n % 2 == 0 for _, g in items))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
    assert len(forked_pids) == 6


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool that sweep starts."""
    sizes = []
    pooled = theorems_module._pooled

    def recording(items, tids, budgets, workers):
        sizes.append(workers)
        return pooled(items, tids, budgets, workers)

    monkeypatch.setattr(theorems_module, "_pooled", recording)
    return sizes


def test_sweep_pool_is_capped_at_the_available_cpus(
    monkeypatch, forked_pids, pool_sizes, all_fixtures
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    items = list(family_items("unicyclic", max_n=7))
    one = sweep(items, THEOREM_IDS, workers=1)
    assert pool_sizes == []
    assert _timeless(sweep(items, THEOREM_IDS, workers=5000)) == _timeless(one)
    sweep(list(all_fixtures.items())[:2], THEOREM_IDS, workers=5000)
    assert pool_sizes == [3, 2]
    assert len(forked_pids) == 3


def test_fail_fast_sweep_cancels_the_chunks_not_started(monkeypatch, forked_pids):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    sent = []
    send = theorems_module._send

    def recording(fd, obj):
        sent.append(obj)
        send(fd, obj)

    monkeypatch.setattr(theorems_module, "_send", recording)
    seq = sweep(family_items("unicyclic", max_n=10), ("ZHANG",), fail_fast=True, workers=1)
    par = sweep(family_items("unicyclic", max_n=10), ("ZHANG",), fail_fast=True, workers=2)
    assert _timeless(par) == _timeless(seq)
    assert par.graphs_tested == 2
    # the chunks in flight when the first reply was read; the worker was
    # killed with them
    assert 1 <= len(sent) <= theorems_module._CHUNKS_PER_WORKER
    assert len(forked_pids) == 1


def test_sweep_replies_stay_small_whatever_fails(monkeypatch, forked_pids):
    # a chunk of these trees is megabytes, and its failing reports, sent
    # whole, would be far more than a pipe holds: the worker would block
    # writing them while this process is blocked writing it the next chunk
    def fails_with_the_graph(f):
        return True, False, (), (("graph", serialize(f.g)),)

    def hung(signum, frame):
        raise TimeoutError("the sweep hung")

    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", fails_with_the_graph)
    items = [(f"t{i}", random_tree(2000, i)) for i in range(32)]
    seq = sweep(items, ("ZHANG",), workers=1)
    alarm = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        par = sweep(items, ("ZHANG",), workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
    assert _timeless(par) == _timeless(seq)
    assert len(par.failures) == 32
    assert len(forked_pids) == 1


def test_sweep_failure_reports_are_replayable(monkeypatch, all_fixtures):
    def always_fails(f):
        return True, False, (), (("why", "forced for the test"),)

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


@pytest.fixture
def record_corpus(all_fixtures, trees_by_n, unicyclic_by_n, connected_by_n):
    """Fixtures, small exhaustive corpora, kernel-gap and random graphs."""
    items = list(all_fixtures.items())
    for corpus, tag, top in ((trees_by_n, "tree", 8), (unicyclic_by_n, "uni", 9),
                             (connected_by_n, "conn", 6)):
        for n in range(1, top + 1):
            items += [(f"{tag}:n{n}:{i}", g) for i, g in enumerate(corpus.get(n, ()))]
    items += [(f"kgap:{k}", kernel_gap_family(k)) for k in range(1, 4)]
    items += [(f"rand:{s}", random_connected(10, s)) for s in range(30)]
    return items


def test_shared_record_changes_no_report(record_corpus):
    for gid, g in record_corpus:
        shared = theorems_module._check_graph(g, gid, THEOREM_IDS, DEFAULT_BUDGETS)
        assert shared == [check(tid, g, gid) for tid in THEOREM_IDS], gid


@pytest.mark.parametrize("forced", [False, True], ids=["as-is", "zhang-fails-on-even-n"])
def test_flags_equal_the_compact_reports(monkeypatch, forked_pids, record_corpus, forced):
    if forced:
        monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    outcomes = []
    for gid, g in record_corpus:
        compact = theorems_module._compact(
            theorems_module._check_graph(g, gid, THEOREM_IDS, DEFAULT_BUDGETS))
        flags = theorems_module._flags(g, THEOREM_IDS, DEFAULT_BUDGETS)
        assert flags == tuple(rep if isinstance(rep, bool) else None for rep in compact), gid
        outcomes.append((g, compact))
    # a sweep, which builds reports only for a graph with a failing check,
    # sums up to what every graph's reports give
    expected = theorems_module._summarize(outcomes, THEOREM_IDS, False, "corpus", 0.0)
    failing = sum(g.n % 2 == 0 for _, g in record_corpus) if forced else 0
    assert len(expected.failures) == failing
    for workers in (1, 2):
        summary = sweep(record_corpus, THEOREM_IDS, workers=workers, family="corpus")
        assert _timeless(summary) == _timeless(expected), workers
    assert len(forked_pids) == 1


def test_sweep_renders_only_the_reports_of_failing_graphs(
    monkeypatch, forked_pids, unicyclic_by_n
):
    items = [(f"{n}:{i}", g) for n in range(3, 9) for i, g in enumerate(unicyclic_by_n[n])]
    built = []
    real_check = theorems_module.check

    def recording_check(tid, g, gid="?", budgets=DEFAULT_BUDGETS):
        rep = real_check(tid, g, gid, budgets)
        built.append(rep)
        return rep

    rendered = []
    real_render = theorems_module._render

    def recording_render(value):
        rendered.append(value)
        return real_render(value)

    monkeypatch.setattr(theorems_module, "check", recording_check)
    monkeypatch.setattr(theorems_module, "_render", recording_render)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    # the calls made in this process are seen: all of them at one worker,
    # the rebuilt reports of failing graphs at two
    for workers in (1, 2):
        assert sweep(items, THEOREM_IDS, workers=workers).all_hold()
    assert built == [] and rendered == []
    monkeypatch.setitem(theorems_module._CHECKERS, "ZHANG", _fails_on_even_n)
    even = [gid for gid, g in items if g.n % 2 == 0]
    for workers in (1, 2):
        built.clear()
        rendered.clear()
        summary = sweep(items, THEOREM_IDS, workers=workers)
        assert [rep.graph_id for _, rep in summary.failures] == sorted(
            even, key=lambda gid: serialize(dict(items)[gid]))
        assert [(rep.graph_id, rep.theorem_id) for rep in built] == [
            (gid, tid) for gid in even for tid in THEOREM_IDS]
        assert len(rendered) == sum(len(rep.witness) + len(rep.counterexample) for rep in built)
    assert len(forked_pids) == 2


def test_a_record_value_is_kept_only_once_its_primitive_returns(monkeypatch):
    g = fixture("uni7-ke")
    f = theorems_module._Facts(g, DEFAULT_BUDGETS)
    real = theorems_module._alpha_active

    def refused(adj, active, budgets):
        raise BudgetExceededError("refused for the test")

    monkeypatch.setattr(theorems_module, "_alpha_active", refused)
    with pytest.raises(BudgetExceededError):
        f.alpha
    assert not {"alpha", "alpha_stages"} & vars(f).keys()
    monkeypatch.setattr(theorems_module, "_alpha_active", real)
    assert f.alpha == alpha(g) and vars(f)["alpha_stages"][0] == alpha(g)


def test_sweep_runs_each_primitive_once_per_graph(monkeypatch, unicyclic_by_n):
    graphs = [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    calls = {}

    def counted(name, fn):
        def wrapper(g, *args):
            key = (name, g.adj)
            calls[key] = calls.get(key, 0) + 1
            return fn(g, *args)
        return wrapper

    # the record lists the MIS family through _mis_family, as masks
    for name in ("critical_difference_bruteforce", "mu", "_mis_family"):
        monkeypatch.setattr(theorems_module, name, counted(name, getattr(theorems_module, name)))
    # alpha, core and corona come from one run of each dispatch stage, and
    # no other whole-graph alpha query: on any graph, a pendant tree's
    # included, a whole-graph first stage outside the record is core's or
    # corona's, so the second stage follows it
    for module, tag in ((theorems_module, ""), (independence_module, "independence.")):
        def counted_alpha(adj, active, budgets, real=module._alpha_active, tag=tag):
            if active == (1 << len(adj)) - 1:
                key = (tag + "_alpha_active", adj)
                calls[key] = calls.get(key, 0) + 1
            return real(adj, active, budgets)

        def counted_drops(adj, stages, real=module._drops, tag=tag):
            key = (tag + "_drops", adj)
            calls[key] = calls.get(key, 0) + 1
            return real(adj, stages)

        monkeypatch.setattr(module, "_alpha_active", counted_alpha)
        monkeypatch.setattr(module, "_drops", counted_drops)
    summary = sweep([(str(i), g) for i, g in enumerate(graphs)], THEOREM_IDS, workers=1)
    assert summary.graphs_tested == len(graphs) == 143
    assert summary.all_hold()
    for name in ("critical_difference_bruteforce", "mu", "_alpha_active", "_drops", "_mis_family"):
        assert [calls.get((name, g.adj)) for g in graphs] == [1] * len(graphs), name
    assert not any(calls.get(("independence._alpha_active", g.adj)) for g in graphs)
    outside = {adj for name, adj in calls if name.startswith("independence.")}
    assert outside  # TH3 and TH12 read the core and corona of pendant trees
    assert all(
        calls.get(("independence._alpha_active", adj)) == calls.get(("independence._drops", adj))
        for adj in outside
    )


def test_one_record_walks_its_cycle_once(monkeypatch, unicyclic_by_n):
    # the record's cycle and its decomposition share one walk of the cycle
    graphs = [g for n in range(3, 9) for g in unicyclic_by_n[n] if alpha(g) + mu(g) == g.n - 1]
    assert len(graphs) == 19
    calls = Counter()
    for module in (theorems_module, unicyclic_module):
        def counted(g, real=module._walk_cycle):
            calls[g.adj] += 1
            return real(g)
        monkeypatch.setattr(module, "_walk_cycle", counted)
    tids = ("LEM1A", "LEM2", "TH3", "TH12", "KERCORE")
    summary = sweep([(str(i), g) for i, g in enumerate(graphs)], tids, workers=1)
    assert summary.all_hold() and summary.checks_applicable == len(tids) * len(graphs)
    assert [calls[g.adj] for g in graphs] == [1] * len(graphs)


def test_record_decomposition_walks_no_components(monkeypatch):
    g = fixture("uni10-nonke")
    expected = decompose(g)
    f = theorems_module._Facts(g, DEFAULT_BUDGETS)
    assert f.cycle == expected.cycle

    def no_walk(self):
        raise AssertionError("components walked again")

    monkeypatch.setattr(Graph, "components", no_walk)
    dec = f.decomposition
    assert dec.cycle == expected.cycle and dec.cycle_set == expected.cycle_set
    assert dec.outer_roots() == expected.outer_roots()
    assert [(pt.root, pt.anchor, pt.vertices, pt.tree.adj) for pt in dec.pendant_trees] == [
        (pt.root, pt.anchor, pt.vertices, pt.tree.adj) for pt in expected.pendant_trees
    ]


def test_the_ke_gate_runs_the_first_stage_only(monkeypatch, all_fixtures):
    # bicyclic10-nonke is one general component and not KE: the gate reads
    # alpha off the first branch-and-bound set and never finishes core or
    # corona, whose queries would ask seven sets more
    def unreached(adj, stages):
        raise AssertionError("the second stage ran")

    def answers(g):
        uni = classify_ke_unicyclic(g) if classify_shape(g).kind == "unicyclic" else None
        return alpha(g), is_koenig_egervary(g), uni

    before = {name: answers(g) for name, g in all_fixtures.items()}
    sets = []
    real = independence_module._bb_set

    def counted(adj, active):
        sets.append(active)
        return real(adj, active)

    monkeypatch.setattr(independence_module, "_bb_set", counted)
    for module in (independence_module, theorems_module):
        monkeypatch.setattr(module, "_drops", unreached)
    g = all_fixtures["bicyclic10-nonke"]
    for tid in ("TH1", "TH4A", "TH4B"):
        sets.clear()
        assert not check(tid, g, "bicyclic10-nonke").applicable
        assert len(sets) == 1, tid
    for name, g in all_fixtures.items():
        assert answers(g) == before[name], name


def test_ke_checkers_read_core_and_corona_from_the_mis_family(monkeypatch):
    # K_{2,3} with a pendant path: bipartite, two independent cycles
    g = parse_edge_list(
        "a1 b1\na1 b2\na1 b3\na2 b1\na2 b2\na2 b3\nb3 p\np q\n"
    )
    tids = ("TH1", "TH2B", "TH4A", "TH4B", "TH2A", "MAIN")
    before = [check(tid, g, "k23p") for tid in tids]
    assert all(rep.applicable and rep.holds for rep in before[:5])

    def wrong(adj, stages):
        full = (1 << len(adj)) - 1
        return full, full

    monkeypatch.setattr(theorems_module, "_drops", wrong)
    after = [check(tid, g, "k23p") for tid in tids]
    assert after[:4] == before[:4]
    # the other checkers still read the record's core and corona
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
    def no_fork():
        raise AssertionError("worker forked")

    monkeypatch.setattr(os, "fork", no_fork)
    summary = sweep([("p3", fixture("p3"))], THEOREM_IDS, workers=4)
    assert summary.graphs_tested == 1
    assert summary.all_hold()


def test_sweep_runs_in_this_process_without_fork(monkeypatch, all_fixtures):
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    items = list(all_fixtures.items())
    one = sweep(items, THEOREM_IDS, workers=1)
    monkeypatch.delattr(os, "fork")
    assert _timeless(sweep(items, THEOREM_IDS, workers=2)) == _timeless(one)


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


@pytest.mark.parametrize(
    "pairs, message",
    [(((0, 1), (1, 2)), "matching reuses a vertex"), (((0, 3),), "is not an edge")],
    ids=["repeated-vertex", "non-edge"],
)
def test_th1_validates_every_index_pair_list(monkeypatch, pairs, message):
    # on P4 (a-b-c-d), index 0 is a: a-b is an edge and a-d is not
    g = parse_edge_list("a b\nb c\nc d\n")
    assert g.labels == ("a", "b", "c", "d")
    assert check("TH1", g, "p4").holds
    monkeypatch.setattr(theorems_module, "_maximum_matching_pairs",
                        lambda g, budgets: [((0, 1), (2, 3)), pairs])
    with pytest.raises(DomainError, match=message):
        check("TH1", g, "p4")


def test_th1_lists_the_maximum_matchings_by_one_mis_search(
    monkeypatch, trees_by_n, unicyclic_by_n
):
    # the maximum matchings are the maximum independent sets of the line
    # graph; core reads no component of these graphs off a matching, so it
    # does not reach the search
    calls = []
    for module in (independence_module, matching_module):
        def counted(adj, full, limit, real=module._mis_masks):
            calls.append(adj)
            return real(adj, full, limit)
        monkeypatch.setattr(module, "_mis_masks", counted)
    graphs = [g for n in range(1, 9) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    ke = 0
    for g in graphs:
        calls.clear()
        rep = check("TH1", g)
        assert rep.holds is not False
        assert len(calls) == rep.applicable, g.edge_labels()
        ke += rep.applicable
    assert ke == 172


def test_th1_vertex_tests_equal_the_listed_family(
    all_fixtures, trees_by_n, unicyclic_by_n, connected_by_n
):
    # the vertices that some maximum matching leaves without a partner in a
    # set, from the per-vertex alpha tests and from the listed family: for
    # the set TH1 reads, and for seeded random sets, so that failures occur
    graphs = list(all_fixtures.values())
    graphs += [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 11) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 8) for g in connected_by_n[n]]
    rng = random.Random(28)
    outcomes = Counter()
    for g in graphs:
        edges, line = matching_module._line_graph(g)
        family = matching_module._maximum_matching_pairs(g)
        f = theorems_module._Facts(g, DEFAULT_BUDGETS)
        ke = f.alpha + f.mu == g.n
        core_mask = f.ke_core.mask
        random_masks = [rng.getrandbits(g.n) for _ in range(3)]
        cases = [(core_mask, _union(g.adj, core_mask), "core")]
        cases += [(m, _union(g.adj, m), "random") for m in random_masks[:2]]
        # sources that need not be the neighbours of the set
        cases.append((random_masks[0], random_masks[2], "random"))
        for into, sources, kind in cases:
            missed = 0
            for pairs in family:
                missed |= theorems_module._unmatched_into(pairs, into, sources)
            got = theorems_module._unmatchable(edges, line, into, sources, {})
            assert got == missed, (serialize(g), kind)
            outcomes[kind, ke, bool(missed)] += 1
    assert outcomes["core", True, True] == 0 and outcomes["core", True, False] > 1000
    assert outcomes["random", True, True] > 1000 and outcomes["random", False, True] > 1000


@pytest.mark.parametrize("workers", [1, 2])
def test_a_passing_sweep_lists_no_matching_and_sorts_no_family(
    monkeypatch, forked_pids, unicyclic_by_n, workers
):
    def never(*args):
        raise AssertionError("a passing sweep listed maximum matchings or sorted a family")

    for module in (theorems_module, matching_module):
        monkeypatch.setattr(module, "_maximum_matching_pairs", never)
    for module in (theorems_module, independence_module):
        monkeypatch.setattr(module, "_sorted_sets", never)
    monkeypatch.setattr(theorems_module, "_available_cpus", lambda: 2)
    graphs = [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    summary = sweep([(str(i), g) for i, g in enumerate(graphs)], THEOREM_IDS, workers=workers)
    assert summary.graphs_tested == 143 and summary.all_hold()
    # a worker raises in the sweep, so the one worker and this process did
    # the checking
    assert len(forked_pids) == workers - 1


def test_th11_validates_the_matching_it_reads(monkeypatch):
    g = fixture("uni7-ke")
    assert check("TH11", g, "uni7-ke").holds
    real = theorems_module._match

    def non_edge(adj, sources, targets):
        # the right size, but each source paired with a vertex it misses
        mate = real(adj, sources, targets)
        return {next(u for u in range(len(adj)) if u != s and not adj[s] >> u & 1): s
                for s in mate.values()}

    monkeypatch.setattr(theorems_module, "_match", non_edge)
    with pytest.raises(DomainError, match="is not an edge"):
        check("TH11", g, "uni7-ke")
