"""d(X), the subset-sweep report held against the list sweep it replaced,
and the matching-based d_c and ker held against it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from corekit import (
    BudgetExceededError,
    Budgets,
    CriticalReport,
    Graph,
    VertexSet,
    alpha,
    classify_shape,
    core,
    critical_difference,
    critical_difference_bruteforce,
    diff,
    find_cycle,
    is_independent,
    ker,
    mu,
    parse_edge_list,
    random_connected,
    random_tree,
    random_unicyclic,
)
from helpers import (
    critical_independent_masks,
    oracle_critical,
    oracle_ker,
    subset_sweep_reference,
)

from test_independence import cycle, path


def test_diff_by_hand():
    g = path(4)
    assert diff(g, g.empty_set()) == 0
    assert diff(g, g.set_of(["v1"])) == 0
    assert diff(g, g.set_of(["v1", "v4"])) == 0
    assert diff(g, g.set_of(["v1", "v3"])) == 0  # N = {v2, v4}
    g5 = path(5)
    assert diff(g5, g5.set_of(["v1", "v3", "v5"])) == 3 - 2  # N = {v2, v4}
    assert diff(g, g.full_set()) == 4 - 4


def test_bruteforce_report_fields(all_fixtures):
    assert CriticalReport._fields == ("d_c", "id_c", "witness_set", "ker")
    for name, g in all_fixtures.items():
        rep = critical_difference_bruteforce(g)
        d_c, id_c, kr = oracle_critical(g)
        assert rep.d_c == d_c, name
        assert rep.id_c == id_c, name
        assert rep.d_c == rep.id_c, name  # background equality, never assumed
        assert frozenset(rep.ker.labels()) == kr, name
        assert diff(g, rep.witness_set) == rep.d_c, name
        assert rep.d_c >= 0, name
        meet = g.full_set()
        for x in critical_independent_masks(g):
            s = VertexSet(g, x)
            assert is_independent(g, s), name
            assert diff(g, s) == rep.id_c, name
            assert rep.ker <= s, name
            meet &= s
        assert rep.ker == meet, name


def test_fast_path_equals_bruteforce(all_fixtures, trees_by_n, unicyclic_by_n):
    for name, g in all_fixtures.items():
        assert critical_difference(g) == critical_difference_bruteforce(g).d_c, name
    for n in range(1, 8):
        for g in trees_by_n[n]:
            assert critical_difference(g) == critical_difference_bruteforce(g).d_c
    for n in range(3, 8):
        for g in unicyclic_by_n[n]:
            assert critical_difference(g) == critical_difference_bruteforce(g).d_c


def test_critical_difference_known_values():
    assert critical_difference(path(2)) == 0
    assert critical_difference(path(3)) == 1  # {v1, v3} -> N = {v2}
    for n in (3, 5, 7):
        assert critical_difference(cycle(n)) == 0
    for n in (4, 6, 8):
        assert critical_difference(cycle(n)) == 0
    star = Graph.from_edges([("c", f"l{i}") for i in range(5)])
    assert critical_difference(star) == 4


def test_ker_matches_oracle(all_fixtures, trees_by_n, unicyclic_by_n, connected_by_n):
    for name, g in all_fixtures.items():
        assert frozenset(ker(g).labels()) == oracle_ker(g), name
    for n in range(1, 8):
        for g in trees_by_n[n]:
            assert frozenset(ker(g).labels()) == oracle_ker(g)
    for n in range(3, 8):
        for g in unicyclic_by_n[n]:
            assert frozenset(ker(g).labels()) == oracle_ker(g)
    for n in range(1, 7):
        for g in connected_by_n[n]:
            assert frozenset(ker(g).labels()) == oracle_ker(g)


def test_ker_subset_of_core(all_fixtures):
    for name, g in all_fixtures.items():
        assert ker(g) <= core(g), name


def test_subset_sweep_budget():
    # a 21-vertex graph that is neither bipartite nor unicyclic
    edges = [(f"v{i}", f"v{i+1}") for i in range(1, 21)]
    edges += [("v1", "v3"), ("v18", "v20")]
    g = Graph.from_edges(edges)
    assert classify_shape(g).kind == "other"
    with pytest.raises(BudgetExceededError, match=r"^subset sweep limited to 20 vertices, got 21$"):
        critical_difference_bruteforce(g, Budgets(subset_n=20))
    # the matching-based ker and d_c have no subset budget
    rep = critical_difference_bruteforce(g, Budgets(subset_n=21))
    assert ker(g) == rep.ker
    assert critical_difference(g) == rep.d_c


def test_sweep_equals_the_list_sweep_on_exhaustive_corpora(
    trees_by_n, unicyclic_by_n, connected_by_n
):
    graphs = [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 11) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 8) for g in connected_by_n[n]]
    for g in graphs:
        assert critical_difference_bruteforce(g) == subset_sweep_reference(g), g.edge_labels()


def test_sweep_equals_the_list_sweep_on_random_connected():
    for i in range(500):
        g = random_connected(2 + i % 15, i // 15)
        assert critical_difference_bruteforce(g) == subset_sweep_reference(g), g.edge_labels()


def test_sweep_edge_cases_equal_the_list_sweep():
    empty = Graph.from_edges([])
    rep = critical_difference_bruteforce(empty)
    assert rep == subset_sweep_reference(empty)
    assert critical_independent_masks(empty) == [0]

    lonely = Graph.from_edges(isolated=[f"z{i}" for i in range(5)])
    rep = critical_difference_bruteforce(lonely)
    assert rep == subset_sweep_reference(lonely)
    assert rep.d_c == rep.id_c == 5
    assert rep.ker == lonely.full_set()

    # a tree, an odd unicyclic graph and an isolated vertex, with the
    # edges shuffled so that the parts' vertex indices interleave
    odd = next(
        g for s in range(100)
        if len(find_cycle(g := random_unicyclic(6, s))) % 2
    )
    parts = [random_tree(5, 3), odd]
    edges = [(f"{k}.{a}", f"{k}.{b}") for k, g in enumerate(parts) for a, b in g.edge_labels()]
    random.Random(5).shuffle(edges)
    union = Graph.from_edges(edges, isolated=["z"])
    assert union.n == 12 and len(union.components()) == 3
    assert critical_difference_bruteforce(union) == subset_sweep_reference(union)

    big = random_connected(20, 1)
    assert critical_difference_bruteforce(big) == subset_sweep_reference(big)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_fast_path_matches_oracle_on_random_connected(n, seed):
    g = random_connected(n, seed)
    d_c, id_c, kr = oracle_critical(g)
    assert critical_difference(g) == d_c
    assert d_c == id_c
    assert frozenset(ker(g).labels()) == kr


def test_long_bipartite_graph_needs_no_recursion():
    # C_6000 plus a chord joining opposite colour classes: bipartite, but
    # neither a forest nor unicyclic, so alpha and mu take the matcher
    n = 6000
    names = [f"v{i}" for i in range(n)]
    rng = random.Random(6000)
    rng.shuffle(names)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges.append((names[0], names[2999]))
    rng.shuffle(edges)
    g = parse_edge_list("".join(f"{u} {v}\n" for u, v in edges))
    assert classify_shape(g).bipartite and classify_shape(g).kind == "other"
    assert alpha(g) == mu(g) == 3000
    assert critical_difference(g) == 0
    assert not ker(g)
