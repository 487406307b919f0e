"""alpha, MIS enumeration, core, corona, and alpha-critical edges,
cross-checked against subset-sweep oracles."""

import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import corekit.independence as independence
from corekit import (
    BudgetExceededError,
    Budgets,
    DomainError,
    Graph,
    VertexSet,
    alpha,
    classify_shape,
    core,
    core_and_corona,
    corona,
    enumerate_connected_graphs,
    enumerate_mis,
    is_alpha_critical_edge,
    is_independent,
    kernel_gap_family,
    random_connected,
    random_tree,
    random_unicyclic,
)
from corekit.budgets import DEFAULT_BUDGETS
from corekit.graph import _components_in, _edge_count
from corekit.theorems import _Facts
from helpers import (
    bb_alpha_reference,
    bb_set_reference,
    mis_family_reference,
    oracle_alpha,
    oracle_core,
    oracle_corona,
    oracle_mis_family,
    unicyclic_drops_reference,
)


def path(n):
    return Graph.from_edges([(f"v{i}", f"v{i+1}") for i in range(1, n)])


def cycle(n):
    edges = [(f"v{i}", f"v{i+1}") for i in range(1, n)] + [("v1", f"v{n}")]
    return Graph.from_edges(edges)


def complete(n):
    return Graph.from_edges(
        [(f"v{i}", f"v{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def test_alpha_closed_forms():
    for n in range(2, 26):
        assert alpha(path(n)) == (n + 1) // 2
    for n in range(3, 26):
        assert alpha(cycle(n)) == n // 2
    for n in range(2, 9):
        assert alpha(complete(n)) == 1
    # complete bipartite K_{3,4}
    kb = Graph.from_edges([(f"a{i}", f"b{j}") for i in range(3) for j in range(4)])
    assert alpha(kb) == 4


def test_alpha_matches_oracle_on_fixtures(all_fixtures):
    for name, g in all_fixtures.items():
        assert alpha(g) == oracle_alpha(g), name


def _both_alphas(g):
    """alpha() and the alpha of the per-graph record."""
    return alpha(g), _Facts(g, DEFAULT_BUDGETS).alpha


def test_alpha_matches_oracle_on_small_corpora(trees_by_n, unicyclic_by_n, connected_by_n):
    for n in range(1, 9):
        for g in trees_by_n[n]:
            assert _both_alphas(g) == (oracle_alpha(g),) * 2
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            assert _both_alphas(g) == (oracle_alpha(g),) * 2
    for n in range(1, 7):
        for g in connected_by_n[n]:
            assert _both_alphas(g) == (oracle_alpha(g),) * 2


def test_is_independent():
    g = path(4)
    assert is_independent(g, g.set_of(["v1", "v3"]))
    assert is_independent(g, g.empty_set())
    assert not is_independent(g, g.set_of(["v1", "v2"]))


def test_enumerate_mis_is_complete_sorted_and_deduplicated(all_fixtures):
    for name, g in all_fixtures.items():
        fam = enumerate_mis(g)
        as_sets = [frozenset(s.labels()) for s in fam]
        assert set(as_sets) == oracle_mis_family(g), name
        assert len(as_sets) == len(set(as_sets)), name
        keys = [s.labels() for s in fam]
        assert keys == sorted(keys), name
        for s in fam:
            assert is_independent(g, s)
            assert len(s) == alpha(g)


def test_enumerate_mis_respects_budget():
    g = path(21)
    with pytest.raises(BudgetExceededError):
        enumerate_mis(g, Budgets(enum_n=20))
    assert alpha(g) == 11  # the non-enumerating path is not budget-bound here


def _adversarial_20():
    """Shapes on 20 vertices that stress the MIS recursion: 2^10 maximum
    independent sets from a perfect matching whose pairs sit 10 indices
    apart, 3^6 * 2 from six triangles plus K2, and dense, sparse, empty and
    grid graphs."""
    labels = tuple(f"v{i}" for i in range(20))
    matching = Graph(labels, tuple(1 << (i + 10) % 20 for i in range(20)), 10)
    triangles = [(f"t{t}{a}", f"t{t}{b}") for t in range(6) for a, b in ("ab", "bc", "ac")]
    grid = [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(4) for c in range(4)]
    grid += [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(3) for c in range(5)]
    return {
        "matching": matching,
        "triangles": Graph.from_edges(triangles + [("x", "y")]),
        "K20": complete(20),
        "K10,10": Graph.from_edges([(f"a{i}", f"b{j}") for i in range(10) for j in range(10)]),
        "C20": cycle(20),
        "P20": path(20),
        "grid4x5": Graph.from_edges(grid),
        "empty20": Graph.from_edges([], isolated=labels),
    }


def _exhaustive(trees_by_n, unicyclic_by_n, connected_by_n):
    graphs = [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 11) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 8) for g in connected_by_n[n]]
    return graphs


def test_enumerate_mis_equals_the_dispatch_pruned_reference(
    trees_by_n, unicyclic_by_n, connected_by_n
):
    graphs = _exhaustive(trees_by_n, unicyclic_by_n, connected_by_n)
    graphs += [kernel_gap_family(k) for k in range(1, 7)]
    graphs += [random_connected(2 + i % 19, i // 19) for i in range(300)]
    graphs += list(_adversarial_20().values())
    graphs.append(Graph.from_edges([]))
    for g in graphs:
        assert enumerate_mis(g) == mis_family_reference(g), g.edge_labels()


def test_enumerate_mis_of_the_adversarial_shapes():
    sizes = {
        "matching": (10, 2**10),
        "triangles": (7, 3**6 * 2),
        "K20": (1, 20),
        "K10,10": (10, 2),
        "C20": (10, 2),
        "P20": (10, 11),
        "grid4x5": (10, 2),
        "empty20": (20, 1),
    }
    for name, g in _adversarial_20().items():
        fam = enumerate_mis(g)
        assert (len(fam[0]), len(fam)) == sizes[name], name
    empty = enumerate_mis(Graph.from_edges([]))
    assert len(empty) == 1 and not empty[0]


def test_alpha_memo_equals_alpha(trees_by_n, unicyclic_by_n, connected_by_n):
    """The exhaustive memo against every dispatch branch of alpha."""
    graphs = _exhaustive(trees_by_n, unicyclic_by_n, connected_by_n)
    graphs += [random_connected(2 + i % 15, i // 15) for i in range(200)]
    for g in graphs:
        assert independence._alpha_memo(g.adj, (1 << g.n) - 1, {}) == alpha(g), g.edge_labels()


def test_enumerate_mis_makes_no_dispatch_queries(monkeypatch, all_fixtures, unicyclic_by_n):
    def refuse(*args):
        raise AssertionError("enumerate_mis asked the dispatching alpha")

    monkeypatch.setattr(independence, "_alpha_active", refuse)
    graphs = list(all_fixtures.values())
    graphs += [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    for g in graphs:
        assert enumerate_mis(g)


def _disjoint_union(parts):
    """One graph holding each part under its own label prefix."""
    edges, isolated = [], []
    for k, g in enumerate(parts):
        edges += [(f"p{k}{a}", f"p{k}{b}") for a, b in g.edge_labels()]
        isolated += [f"p{k}{lab}" for lab in g.labels if g.degree(lab) == 0]
    return Graph.from_edges(edges, isolated=tuple(isolated))


def test_core_and_corona_match_oracle(
    all_fixtures, trees_by_n, unicyclic_by_n, connected_by_n
):
    for name, g in all_fixtures.items():
        assert frozenset(core(g).labels()) == oracle_core(g), name
        assert frozenset(corona(g).labels()) == oracle_corona(g), name
    graphs = [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 7) for g in connected_by_n[n]]
    # disconnected: a forest, a unicyclic graph, a general graph and an
    # isolated vertex side by side
    for seed in range(30):
        forest = _disjoint_union([random_tree(1 + seed % 4, seed), random_tree(2, seed)])
        graphs.append(
            _disjoint_union(
                [
                    forest,
                    random_unicyclic(3 + seed % 3, seed),
                    random_connected(2 + seed % 4, seed),
                    Graph.from_edges(isolated=("z",)),
                ]
            )
        )
    for g in graphs:
        assert frozenset(core(g).labels()) == oracle_core(g), g.edge_labels()
        assert frozenset(corona(g).labels()) == oracle_corona(g), g.edge_labels()


def test_core_and_corona_match_definition_on_large_inputs():
    for seed in range(2):
        for g in (random_tree(300, seed), random_unicyclic(300, seed)):
            in_core, in_corona = _definition(g)
            assert set(core(g).labels()) == in_core
            assert set(corona(g).labels()) == in_corona


def test_unicyclic_split_equals_the_per_vertex_reference():
    graphs = [random_unicyclic(n, s) for n in (30, 200, 1000) for s in range(20)]
    # a unicyclic graph, a tree and a general graph in one call
    mixed = 0
    for seed in range(30):
        g = _disjoint_union(
            [
                random_unicyclic(3 + seed % 12, seed),
                random_tree(1 + seed % 9, seed),
                random_connected(4 + seed % 9, seed),
            ]
        )
        mixed += any(
            _edge_count(g.adj, c) > c.bit_count() for c, _ in _components_in(g.adj, (1 << g.n) - 1)
        )
        graphs.append(g)
    assert mixed >= 20
    for g in graphs:
        assert core(g) == unicyclic_drops_reference(g, closed=False), g.edge_labels()
        assert corona(g) == unicyclic_drops_reference(g, closed=True), g.edge_labels()


def test_forest_dp_state_is_sized_by_the_walked_set():
    # a path on 10000 vertices; the walk covers a P5 and a P3 of it, and
    # every list it returns has one entry per walked vertex, not per vertex
    # of the adjacency
    n = 10000
    adj = tuple((1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0) for v in range(n))
    active = (0b11111 << 5000) | (0b111 << 9000)
    dp = total, order, parent, take, skip = independence._forest_dp(adj, active)
    assert total == 3 + 2
    assert sorted(order) == [5000, 5001, 5002, 5003, 5004, 9000, 9001, 9002]
    for state in (order, parent, take, skip):
        assert len(state) == active.bit_count()
    assert [i for i, p in enumerate(parent) if p < 0] == [0, 5]
    # each path has one maximum independent set, its even positions
    ends = 0b10101 << 5000 | 0b101 << 9000
    assert independence._forest_removals(dp) == (ends, ends)


def test_forest_sides_strip_only_in_the_consumers(monkeypatch, trees_by_n, unicyclic_by_n):
    """The dispatcher strips no cycle; core_and_corona strips a unicyclic
    component once and runs one rerooting pass per forest side whose alpha
    is alpha(C)."""
    calls = {"strip": 0, "removals": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        independence, "_strip_to_cycles", counted("strip", independence._strip_to_cycles)
    )
    monkeypatch.setattr(
        independence, "_forest_removals", counted("removals", independence._forest_removals)
    )
    for sides, graphs in ((1, trees_by_n), (2, unicyclic_by_n)):
        for g in (g for n in range(1, 9) for g in graphs.get(n, ())):
            full = (1 << g.n) - 1
            tops = [
                independence._forest_dp(g.adj, side)[0] == alpha(g)
                for side in independence._forest_sides(g.adj, full, sides - 1)
            ]
            assert len(tops) == sides and any(tops)
            calls.update(strip=0, removals=0)
            assert not _Facts(g, DEFAULT_BUDGETS).matching_read
            assert calls == {"strip": 0, "removals": 0}, g.edge_labels()
            independence.core_and_corona(g)
            assert calls == {"strip": sides - 1, "removals": sum(tops)}, g.edge_labels()


def _definition(g):
    """core and corona by one alpha query per vertex."""
    a = alpha(g)
    in_core = set()
    in_corona = set()
    for lab in g.labels:
        v = g.vertex(lab)
        if alpha(g.delete_vertices(v)) == a - 1:
            in_core.add(lab)
        if alpha(g.delete_vertices(g.neighborhood(v, closed=True))) == a - 1:
            in_corona.add(lab)
    return in_core, in_corona


def _general_graphs():
    """Every connected graph on 7 vertices, 200 seeded random connected
    graphs with 8 <= n <= 30, and 30 disjoint unions of two random connected
    graphs and an isolated vertex."""
    graphs = list(enumerate_connected_graphs(7))
    graphs += [random_connected(8 + seed % 23, seed) for seed in range(200)]
    for seed in range(30):
        graphs.append(
            _disjoint_union(
                [
                    random_connected(5 + seed % 6, seed),
                    random_connected(4 + seed % 9, 1000 + seed),
                    Graph.from_edges(isolated=("z",)),
                ]
            )
        )
    return graphs


def _is_general(adj, comp):
    return _edge_count(adj, comp) > comp.bit_count() and _components_in(adj, comp)[0][1] is None


def test_witness_driven_core_and_corona_match_definition():
    graphs = _general_graphs()
    assert len(graphs) == 853 + 200 + 30
    general = 0
    for g in graphs:
        general += any(_is_general(g.adj, c) for c, _ in _components_in(g.adj, (1 << g.n) - 1))
        in_core, in_corona = _definition(g)
        assert set(core(g).labels()) == in_core, g.edge_labels()
        assert set(corona(g).labels()) == in_corona, g.edge_labels()
        # both sides at once: corona's witnesses also cut core's candidates
        both = core_and_corona(g)
        assert (set(both[0].labels()), set(both[1].labels())) == (in_core, in_corona)
    assert general >= 900


def test_bb_set_is_a_maximum_independent_set(connected_by_n):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    graphs += [random_connected(8 + seed % 23, seed) for seed in range(200)]
    for g in graphs:
        full = (1 << g.n) - 1
        s = independence._bb_set(g.adj, full)
        assert s & ~full == 0
        assert is_independent(g, VertexSet(g, s)), g.edge_labels()
        assert s.bit_count() == bb_alpha_reference(g.adj, full), g.edge_labels()
        # the same set as the recursive search it replaced
        assert s == bb_set_reference(g.adj, full), g.edge_labels()


def test_bb_set_needs_no_recursion_on_a_long_skip_chain():
    # K_{300,300}: each skip of a left vertex leaves the bound open until the
    # left side is gone, so the search branches 300 levels deep
    left, right = (1 << 300) - 1, ((1 << 300) - 1) << 300
    adj = tuple(right if v < 300 else left for v in range(600))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        s = independence._bb_set(adj, left | right)
    finally:
        sys.setrecursionlimit(limit)
    assert s.bit_count() == 300


def test_core_and_corona_query_bound(monkeypatch):
    """One branch-and-bound for the witness S, then at most one query per
    vertex: outside S for corona, in S for core, whichever entry point
    asks."""
    real = independence._bb_set
    calls = []

    def counting(adj, active):
        calls.append(active)
        return real(adj, active)

    monkeypatch.setattr(independence, "_bb_set", counting)
    checked = 0
    for seed in range(40):
        g = random_connected(12 + seed % 19, seed)
        full = (1 << g.n) - 1
        if not _is_general(g.adj, full):
            continue
        checked += 1
        for fn in (core, corona, core_and_corona):
            calls.clear()
            fn(g)
            assert 1 <= len(calls) <= g.n + 1, (fn.__name__, seed, len(calls))
    assert checked >= 30


def test_core_and_corona_together_share_their_witnesses(monkeypatch, connected_by_n):
    """core, corona and core_and_corona run the same one pass: over the
    connected graphs with n <= 7 it shares each of the 887 general
    components' first set between the sides, and corona's witnesses, asked
    first, cut core's candidates, 812 queries fewer than the sides apart
    (3151 for core, 3780 for corona)."""
    real = independence._bb_set
    calls = []

    def counting(adj, active):
        calls.append(active)
        return real(adj, active)

    monkeypatch.setattr(independence, "_bb_set", counting)
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    counts = {}
    for fn in (core, corona, core_and_corona):
        calls.clear()
        for g in graphs:
            fn(g)
        counts[fn.__name__] = len(calls)
    assert counts == dict.fromkeys(("core", "corona", "core_and_corona"), 5232)


def test_core_and_corona_of_a_large_general_graph_are_fast():
    g = random_connected(120, 0)
    budgets = Budgets(bb_n=1000)
    start = time.perf_counter()
    c = core(g, budgets)
    cor = corona(g, budgets)
    assert time.perf_counter() - start < 5
    assert c <= cor


@pytest.mark.parametrize("fn", [alpha, core, corona])
def test_general_component_over_budget_raises_before_branching(monkeypatch, fn):
    def refuse(adj, active):
        raise AssertionError("branch-and-bound started over budget")

    monkeypatch.setattr(independence, "_bb_set", refuse)
    g = complete(8)
    with pytest.raises(BudgetExceededError) as exc:
        fn(g, Budgets(bb_n=7))
    assert str(exc.value) == "alpha branch-and-bound limited to components of 7 vertices, got 8"


def _random_bipartite(seed):
    """Up to 40 vertices: two random sides joined with a random density,
    usually disconnected, plus up to three isolated vertices."""
    rng = random.Random(f"bipartite:{seed}")
    left = [f"l{i}" for i in range(rng.randint(1, 19))]
    right = [f"r{i}" for i in range(rng.randint(1, 18))]
    p = rng.uniform(0.1, 0.6)
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    used = {x for e in edges for x in e}
    isolated = [x for x in left + right if x not in used]
    isolated += [f"z{i}" for i in range(rng.randint(0, 3))]
    return Graph.from_edges(edges, isolated=isolated)


def test_core_and_corona_match_oracle_on_bipartite_graphs(connected_by_n):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n] if classify_shape(g).bipartite]
    assert len(graphs) == 72
    for g in graphs:
        assert frozenset(core(g).labels()) == oracle_core(g), g.edge_labels()
        assert frozenset(corona(g).labels()) == oracle_corona(g), g.edge_labels()


def test_bipartite_core_and_corona_match_definition_on_random_graphs():
    dense = 0
    for seed in range(200):
        g = _random_bipartite(seed)
        assert g.n <= 40 and classify_shape(g).bipartite
        # then some component has more edges than vertices
        dense += g.m > g.n
        in_core, in_corona = _definition(g)
        assert set(core(g).labels()) == in_core, seed
        assert set(corona(g).labels()) == in_corona, seed
    assert dense >= 100


def test_matching_read_follows_the_gallai_edmonds_branch(monkeypatch, connected_by_n):
    calls = []
    real = independence._even_reach

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(independence, "_even_reach", counting)
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    graphs += [random_connected(8 + seed % 23, seed) for seed in range(200)]
    graphs += [_random_bipartite(seed) for seed in range(200)]
    for seed in range(30):
        graphs.append(
            _disjoint_union(
                [random_connected(4 + seed % 9, seed), _random_bipartite(seed), random_tree(3, seed)]
            )
        )
    read = 0
    for g in graphs:
        calls.clear()
        core(g)
        read += bool(calls)
        assert _Facts(g, DEFAULT_BUDGETS).matching_read == bool(calls), g.edge_labels()
    assert 100 <= read <= len(graphs) - 100


def test_core_and_corona_need_no_recursion_on_a_long_path():
    g = path(20001)
    odd = {f"v{i}" for i in range(1, 20002, 2)}
    assert set(core(g).labels()) == odd
    assert set(corona(g).labels()) == odd


def test_core_corona_sandwich_every_mis(all_fixtures):
    for name, g in all_fixtures.items():
        c = core(g)
        cor = corona(g)
        for s in enumerate_mis(g):
            assert c <= s, name
            assert s <= cor, name


def test_alpha_critical_edges_match_direct_recomputation(all_fixtures):
    for name, g in all_fixtures.items():
        for u, v in g.edge_labels():
            direct = oracle_alpha(g.delete_edge(u, v)) == oracle_alpha(g) + 1
            assert is_alpha_critical_edge(g, u, v) == direct, (name, u, v)
    g = path(3)
    with pytest.raises(DomainError, match="no edge 'v1' 'v3'"):
        is_alpha_critical_edge(g, "v1", "v3")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6))
def test_alpha_matches_oracle_on_random_connected(n, seed):
    g = random_connected(n, seed)
    assert _both_alphas(g) == (oracle_alpha(g),) * 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_mis_family_invariants_on_random_trees(n, seed):
    g = random_tree(n, seed)
    fam = enumerate_mis(g)
    a = alpha(g)
    inter = g.full_set()
    union = g.empty_set()
    for s in fam:
        assert len(s) == a
        assert is_independent(g, s)
        inter = inter & s
        union = union | s
    assert inter == core(g)
    assert union == corona(g)
