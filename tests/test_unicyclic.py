"""Cycle finding, pendant-tree decomposition, KE classification, and the
structural core/corona/ker shortcuts for unicyclic graphs."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from corekit import (
    Graph,
    NotUnicyclicError,
    PreconditionError,
    alpha,
    classify_ke_unicyclic,
    core,
    corona,
    decompose,
    find_cycle,
    fixture,
    is_alpha_critical_edge,
    is_koenig_egervary,
    kernel_gap_family,
    ker,
    random_unicyclic,
    serialize,
    structural_core,
    structural_corona,
    structural_ker,
    sweep,
)
from corekit import independence as independence_module
from corekit import matching as matching_module
from corekit import theorems as theorems_module
from corekit import unicyclic as unicyclic_module
from corekit.unicyclic import _non_critical_cycle_edges
from helpers import (
    non_critical_cycle_edges_reference,
    oracle_core,
    oracle_corona,
    oracle_ker,
    walk_cycle_reference,
)

from test_independence import cycle, path


def test_find_cycle_canonical_form():
    assert find_cycle(cycle(5)) == ("v1", "v2", "v3", "v4", "v5")
    assert find_cycle(fixture("k3")) == ("a", "b", "c")
    # starts at the smallest cycle label, walks toward its smaller neighbor
    g = Graph.from_edges([("d", "b"), ("b", "a"), ("a", "c"), ("c", "d"), ("d", "x")])
    assert find_cycle(g) == ("a", "b", "d", "c")


def test_find_cycle_equals_the_label_walk(unicyclic_by_n):
    graphs = [g for n in range(3, 10) for g in unicyclic_by_n[n]]
    # the same graphs with shuffled labels, so label order and index order differ
    relabelled = []
    for s, g in enumerate(graphs):
        names = list(g.labels)
        random.Random(s).shuffle(names)
        rename = dict(zip(g.labels, names))
        relabelled.append(Graph.from_edges([(rename[a], rename[b]) for a, b in g.edge_labels()]))
    graphs += relabelled + [random_unicyclic(300, s) for s in range(10)]
    for g in graphs:
        assert find_cycle(g) == walk_cycle_reference(g), g.edge_labels()


def test_find_cycle_requires_unicyclic():
    with pytest.raises(NotUnicyclicError):
        find_cycle(path(4))
    with pytest.raises(NotUnicyclicError):
        find_cycle(fixture("bicyclic9-nonke"))
    disconnected = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a")], isolated=["z"]
    )
    with pytest.raises(NotUnicyclicError):
        find_cycle(disconnected)


def test_decompose_partitions_the_graph(all_fixtures):
    for name in ["uni7-ke", "uni10-nonke", "uni9-ke", "uni7-ke-kereq", "uni8-nonke", "c4", "c5", "k3"]:
        g = all_fixtures[name]
        dec = decompose(g)
        covered = set(dec.cycle)
        assert len(covered) == len(dec.cycle), name
        for pt in dec.pendant_trees:
            vs = set(pt.vertices.labels())
            assert pt.root in vs, name
            assert pt.anchor in dec.cycle, name
            assert not covered & vs, name
            covered |= vs
            # each pendant tree really is a tree containing its root
            assert pt.tree.n == len(vs), name
            assert pt.tree.m == pt.tree.n - 1, name
        assert covered == set(g.labels), name
        # roots are exactly the off-cycle vertices adjacent to the cycle
        cyc = g.set_of(dec.cycle)
        n1 = g.neighborhood(cyc) - cyc
        assert dec.outer_roots() == n1, name


def test_decompose_uni10_names():
    g = fixture("uni10-nonke")
    dec = decompose(g)
    assert set(dec.cycle) == {"y", "d", "t", "c", "w"}
    assert sorted(dec.outer_roots().labels()) == ["x"]
    (pt,) = dec.pendant_trees
    assert pt.root == "x"
    assert pt.anchor == "y"
    assert sorted(pt.vertices.labels()) == ["a", "b", "u", "v", "x"]


def _pendant_trees_by_deletion(g, cycle):
    """Reference: for each root in label order, the component holding it
    once its anchor is deleted, as (root, anchor, vertex labels)."""
    cycle_set = g.set_of(cycle)
    out = []
    for r in sorted((g.neighborhood(cycle_set) - cycle_set).labels()):
        anchor_mask = g.adj[g.index_of(r)] & cycle_set.mask
        anchor = g.labels[(anchor_mask & -anchor_mask).bit_length() - 1]
        body = g.delete_vertices(g.vertex(anchor))
        comp = next(c for c in body.components() if c >> body.index_of(r) & 1)
        out.append((r, anchor, sorted(body.labels[i] for i in range(body.n) if comp >> i & 1)))
    return out


def test_decompose_equals_the_deletion_construction(unicyclic_by_n):
    graphs = [g for n in range(3, 10) for g in unicyclic_by_n[n]]
    graphs += [random_unicyclic(300, s) for s in range(5)]
    for g in graphs:
        dec = decompose(g)
        got = [(pt.root, pt.anchor, sorted(pt.vertices.labels())) for pt in dec.pendant_trees]
        assert got == _pendant_trees_by_deletion(g, dec.cycle), serialize(g)
        for pt in dec.pendant_trees:
            want = g.induced_subgraph(g.set_of(pt.vertices.labels()))
            assert pt.tree.labels == want.labels
            assert serialize(pt.tree) == serialize(want)


def test_classify_ke_unicyclic_consistency(unicyclic_by_n):
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            cls = classify_ke_unicyclic(g)
            assert cls.koenig_egervary == (cls.alpha_plus_mu == g.n)
            assert cls.koenig_egervary == is_koenig_egervary(g)
            # LEM2 shape: non-KE iff every cycle edge is alpha-critical
            assert cls.all_cycle_edges_alpha_critical == (not cls.koenig_egervary)
            assert cls.all_cycle_edges_alpha_critical == (
                not cls.non_critical_cycle_edges
            )
            for u, v in cls.non_critical_cycle_edges:
                assert not is_alpha_critical_edge(g, u, v)


def test_structural_shortcuts_require_non_ke():
    for name in ["uni7-ke", "uni9-ke", "c4"]:
        g = fixture(name)
        for fn in (structural_core, structural_corona, structural_ker):
            with pytest.raises(PreconditionError):
                fn(g)
    with pytest.raises(NotUnicyclicError):
        structural_core(path(4))


def test_structural_shortcuts_match_bruteforce(unicyclic_by_n):
    checked = 0
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            if is_koenig_egervary(g):
                continue
            checked += 1
            assert frozenset(structural_core(g).labels()) == oracle_core(g)
            assert frozenset(structural_corona(g).labels()) == oracle_corona(g)
            assert frozenset(structural_ker(g).labels()) == oracle_ker(g)
            assert structural_ker(g) == structural_core(g)
    assert checked > 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 10**6))
def test_decomposition_invariants_on_random_unicyclic(n, seed):
    g = random_unicyclic(n, seed)
    dec = decompose(g)
    # the cycle is a closed walk of distinct vertices whose edges all exist
    cyc = list(dec.cycle)
    assert len(set(cyc)) == len(cyc) >= 3
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.has_edge(u, v)
    # vertex set partitions into cycle + pendant trees
    covered = set(cyc)
    for pt in dec.pendant_trees:
        vs = set(pt.vertices.labels())
        assert not covered & vs
        covered |= vs
        # every root has exactly one neighbor on the cycle
        root_nbrs = g.neighborhood(g.set_of([pt.root]))
        assert len(root_nbrs & g.set_of(cyc)) == 1
    assert covered == set(g.labels)


def test_structural_shortcuts_on_named_fixtures():
    g = fixture("uni10-nonke")
    assert frozenset(structural_core(g).labels()) == frozenset(core(g).labels())
    assert frozenset(structural_corona(g).labels()) == frozenset(corona(g).labels())
    assert frozenset(structural_ker(g).labels()) == frozenset(ker(g).labels())
    g = fixture("uni8-nonke")
    assert sorted(structural_core(g).labels()) == ["x", "y"]


def _per_edge_non_critical(g):
    cyc = find_cycle(g)
    bad = []
    for k in range(len(cyc)):
        u, v = cyc[k], cyc[(k + 1) % len(cyc)]
        if not is_alpha_critical_edge(g, u, v):
            bad.append((u, v) if u <= v else (v, u))
    return sorted(bad)


def test_one_pass_cycle_edges_match_per_edge_alpha(unicyclic_by_n):
    graphs = [g for n in range(3, 12) for g in unicyclic_by_n[n]]
    assert len(graphs) == 2846
    graphs += [kernel_gap_family(k) for k in range(1, 7)]
    graphs += [random_unicyclic(n, s) for n in (30, 200, 1000) for s in range(10)]
    for g in graphs:
        got = _non_critical_cycle_edges(g, find_cycle(g), alpha(g))
        assert got == _per_edge_non_critical(g), serialize(g)


def test_lem2_asks_no_alpha_query_per_cycle_edge(monkeypatch, unicyclic_by_n):
    graphs = [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    inside = []
    calls = []
    real_edges = theorems_module._non_critical_cycle_edges

    def edges(*args):
        inside.append(True)
        try:
            return real_edges(*args)
        finally:
            inside.pop()

    def counted(fn):
        def wrapper(adj, active, budgets):
            if inside:
                calls.append(adj)
            return fn(adj, active, budgets)
        return wrapper

    monkeypatch.setattr(theorems_module, "_non_critical_cycle_edges", edges)
    for module in (independence_module, unicyclic_module, matching_module):
        monkeypatch.setattr(module, "_alpha_active", counted(module._alpha_active))
    summary = sweep([(str(i), g) for i, g in enumerate(graphs)], ("LEM2",))
    assert summary.graphs_tested == len(graphs) and summary.all_hold()
    assert calls == []


def _cycle_with_pendant_trees(length, extra, rng):
    """A cycle c0..c{length-1} and extra more vertices, each joined to a
    random earlier vertex, so the pendant trees hang anywhere on the cycle."""
    names = [f"c{i}" for i in range(length)]
    edges = [(names[i], names[(i + 1) % length]) for i in range(length)]
    for i in range(extra):
        edges.append((rng.choice(names), f"t{i}"))
        names.append(f"t{i}")
    return Graph.from_edges(edges)


def test_cycle_edge_passes_equal_the_per_edge_path_dp():
    rng = random.Random(19)
    lengths = list(range(3, 41)) + [63, 64, 101, 255, 256, 600]
    outcomes = set()
    for length in lengths:
        for _ in range(3):
            extra = rng.choice((0, 1, rng.randint(0, length), rng.randint(0, 3 * length)))
            g = _cycle_with_pendant_trees(length, extra, rng)
            cyc = find_cycle(g)
            a = alpha(g)
            got = _non_critical_cycle_edges(g, cyc, a)
            assert got == non_critical_cycle_edges_reference(g, cyc, a), serialize(g)
            outcomes.add((length % 2, not got, len(got) == length))
    # KE graphs on odd and even cycles and non-KE ones, which need an odd
    # cycle (a bipartite graph is KE); some with every cycle edge non-critical
    assert {(p, e) for p, e, _ in outcomes} == {(0, False), (1, False), (1, True)}
    assert any(every for _, _, every in outcomes)


def test_cycle_edge_passes_are_linear_in_the_cycle_length():
    g = _cycle_with_pendant_trees(4000, 1, random.Random(0))
    cyc = find_cycle(g)
    a = alpha(g)
    start = time.perf_counter()
    got = _non_critical_cycle_edges(g, cyc, a)
    assert time.perf_counter() - start < 0.5
    # alpha = 2001 and mu = 2000; each G - e is a tree with mu = 2000, so
    # alpha(G - e) = 4001 - 2000 = alpha and no cycle edge is critical
    assert a == 2001 and len(got) == 4000
