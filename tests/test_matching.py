"""Maximum matchings, the Koenig-Egervary test, saturating matchings,
and maximum-matching enumeration, against an edge-subset oracle."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from corekit import (
    BudgetExceededError,
    Budgets,
    DomainError,
    Graph,
    Matching,
    alpha,
    classify_shape,
    enumerate_maximum_matchings,
    find_cycle,
    is_koenig_egervary,
    is_mu_critical_edge,
    kernel_gap_family,
    maximum_matching,
    mu,
    random_connected,
    random_tree,
    random_unicyclic,
    saturating_matching,
)
from corekit.independence import _alpha_memo
from helpers import oracle_mu, strip_matching_reference

from test_independence import complete, cycle, path


def test_mu_closed_forms():
    for n in range(2, 26):
        assert mu(path(n)) == n // 2
    for n in range(3, 26):
        assert mu(cycle(n)) == n // 2
    for n in range(2, 9):
        assert mu(complete(n)) == n // 2
    kb = Graph.from_edges([(f"a{i}", f"b{j}") for i in range(3) for j in range(4)])
    assert mu(kb) == 3


def test_mu_matches_oracle_on_fixtures(all_fixtures):
    for name, g in all_fixtures.items():
        assert mu(g) == oracle_mu(g), name


def test_mu_matches_oracle_on_small_corpora(trees_by_n, unicyclic_by_n, connected_by_n):
    for n in range(1, 9):
        for g in trees_by_n[n]:
            assert mu(g) == oracle_mu(g)
    for n in range(3, 9):
        for g in unicyclic_by_n[n]:
            assert mu(g) == oracle_mu(g)
    for n in range(1, 7):
        for g in connected_by_n[n]:
            assert mu(g) == oracle_mu(g)


def _first(make, n, seed, wanted):
    """The first make(n, ...) from the seed on that has the wanted property."""
    while not wanted(g := make(n, seed)):
        seed += 1000
    return g


def _disjoint_union(parts, seed):
    """The parts with labels made distinct, plus an isolated vertex, the
    edges shuffled so that the parts' vertex indices interleave."""
    edges = [(f"{k}.{a}", f"{k}.{b}") for k, g in enumerate(parts) for a, b in g.edge_labels()]
    random.Random(seed).shuffle(edges)
    return Graph.from_edges(edges, isolated=["z"])


def _line_graph(g):
    """The adjacency rows of the line graph: edge e of g.edges() meets every
    other edge at either of its ends."""
    edges = list(g.edges())
    at = [0] * g.n
    for e, (i, j) in enumerate(edges):
        at[i] |= 1 << e
        at[j] |= 1 << e
    return tuple((at[i] | at[j]) & ~(1 << e) for e, (i, j) in enumerate(edges))


def test_mu_matches_the_exhaustive_memo(trees_by_n, unicyclic_by_n, connected_by_n):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    graphs += [g for n in range(1, 10) for g in trees_by_n[n]]
    graphs += [g for n in range(3, 10) for g in unicyclic_by_n[n]]
    graphs += [random_connected(16, s) for s in range(300)]
    for s in range(30):
        rng = random.Random(s)
        parts = [
            random_tree(rng.randint(2, 7), s),
            _first(random_unicyclic, rng.randint(3, 7), s, lambda g: len(find_cycle(g)) % 2),
            _first(random_connected, rng.randint(4, 7), s,
                   lambda g: g.m > g.n and not classify_shape(g).bipartite),
        ]
        graphs.append(_disjoint_union(parts, s))
    for g in graphs:
        line = _line_graph(g)
        assert mu(g) == _alpha_memo(line, (1 << len(line)) - 1, {}), g.edge_labels()


def test_mu_equals_leaf_stripping_on_large_trees_and_unicyclic_graphs():
    for n in (40, 300):
        for s in range(10):
            for g in (random_tree(n, s), random_unicyclic(n, s)):
                full = (1 << g.n) - 1
                assert mu(g) == len(strip_matching_reference(g.adj, full)), (n, s)


def _shuffled(n, closed):
    """The path on n vertices, or the cycle when closed, with shuffled
    labels and edge order."""
    rng = random.Random(n)
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    if closed:
        edges.append((names[-1], names[0]))
    rng.shuffle(edges)
    return Graph.from_edges(edges)


def test_mu_is_fast_on_a_large_tree_path_and_cycle():
    g = random_tree(6000, 0)
    start = time.perf_counter()
    got = mu(g)
    elapsed = time.perf_counter() - start
    assert got == g.n - alpha(g)
    assert elapsed < 1.0, elapsed
    for g in (_shuffled(20000, False), _shuffled(20001, True)):
        start = time.perf_counter()
        got = mu(g)
        elapsed = time.perf_counter() - start
        assert got == 10000, g.n
        assert elapsed < 5.0, (g.n, elapsed)


def test_maximum_matching_needs_no_budget_on_large_general_graphs():
    for s in range(3):
        g = random_connected(300, s)
        # the Matching constructor inside re-verifies every pair
        mm = maximum_matching(g)
        assert len(mm) == 150


def _flower(k):
    """The odd cycle C_{2k+1} with a triangle hanging from each cycle vertex:
    nested odd cycles, neither bipartite nor unicyclic."""
    size = 2 * k + 1
    edges = [(f"c{i}", f"c{(i + 1) % size}") for i in range(size)]
    for i in range(size):
        edges += [(f"c{i}", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", f"c{i}")]
    return Graph.from_edges(edges)


def test_mu_of_odd_cycles_with_pendant_blossoms():
    for k in range(1, 7):
        for g in (complete(2 * k + 1), complete(2 * k + 2), kernel_gap_family(k), _flower(k)):
            assert mu(g) == g.n // 2, (k, g.n)
            assert len(maximum_matching(g).vertices()) == 2 * (g.n // 2)


def test_maximum_matching_is_valid_and_maximum(all_fixtures):
    for name, g in all_fixtures.items():
        mm = maximum_matching(g)
        assert len(mm.edge_labels()) == mu(g), name
        # constructor validation already guarantees edges exist and are disjoint;
        # re-check through the public surface anyway
        seen = set()
        for u, v in mm.edge_labels():
            assert g.has_edge(u, v), name
            assert u not in seen and v not in seen, name
            seen.update((u, v))


def test_matching_constructor_validates():
    g = path(4)
    Matching.from_labels(g, [("v1", "v2"), ("v3", "v4")])
    with pytest.raises(DomainError):
        Matching.from_labels(g, [("v1", "v3")])  # not an edge
    with pytest.raises(DomainError):
        Matching.from_labels(g, [("v1", "v2"), ("v2", "v3")])  # shares v2


def test_matching_matched_to():
    g = path(4)
    mm = Matching.from_labels(g, [("v1", "v2")])
    assert mm.matched_to("v1") == "v2"
    assert mm.matched_to("v2") == "v1"
    assert mm.matched_to("v3") is None


def test_koenig_egervary():
    # bipartite graphs are always KE
    for g in [path(5), cycle(6), Graph.from_edges([("a", "b")])]:
        assert is_koenig_egervary(g)
    # odd cycles never are
    for n in (3, 5, 7):
        assert not is_koenig_egervary(cycle(n))


def test_koenig_egervary_on_fixtures(all_fixtures):
    expected_ke = {
        "uni7-ke": True,
        "uni10-nonke": False,
        "tree5-pendant": True,
        "uni9-ke": True,
        "uni7-ke-kereq": True,
        "uni8-nonke": False,
        "bicyclic10-ke": True,
        "bicyclic9-nonke": False,
        "p2": True,
        "p3": True,
        "c4": True,
        "c5": False,
        "k1": True,
        "k3": False,
        "bicyclic10-nonke": False,
    }
    for name, g in all_fixtures.items():
        assert is_koenig_egervary(g) == expected_ke[name], name
        assert is_koenig_egervary(g) == (alpha(g) + mu(g) == g.n), name


def test_saturating_matching_positive_and_hall_failure():
    g = path(3)
    m = saturating_matching(g, g.set_of(["v2"]), g.set_of(["v1", "v3"]))
    assert m is not None and len(m.edge_labels()) == 1
    assert saturating_matching(g, g.set_of(["v1", "v3"]), g.set_of(["v2"])) is None
    star = Graph.from_edges([("c", "l1"), ("c", "l2"), ("c", "l3")])
    assert saturating_matching(star, star.set_of(["l1", "l2"]), star.set_of(["c"])) is None
    with pytest.raises(DomainError):
        saturating_matching(g, g.set_of(["v1", "v2"]), g.set_of(["v2"]))


def test_saturating_matching_only_uses_source_target_edges():
    # v1-v2 and v3-v4 with sources {v1, v3}: targets {v2} can't take both
    g = path(4)
    m = saturating_matching(g, g.set_of(["v1", "v3"]), g.set_of(["v2", "v4"]))
    assert m is not None
    labels = dict(m.edge_labels())
    assert labels == {"v1": "v2", "v3": "v4"}


def test_enumerate_maximum_matchings_small_graphs():
    fam = enumerate_maximum_matchings(path(3))
    assert [m.edge_labels() for m in fam] == [[("v1", "v2")], [("v2", "v3")]]
    fam = enumerate_maximum_matchings(cycle(4))
    assert len(fam) == 2
    fam = enumerate_maximum_matchings(complete(3))
    assert len(fam) == 3
    keys = [tuple(m.edge_labels()) for m in fam]
    assert keys == sorted(keys)
    # P4 has exactly one maximum matching
    assert len(enumerate_maximum_matchings(path(4))) == 1


def test_enumerate_maximum_matchings_counts_match_oracle(connected_by_n, unicyclic_by_n):
    def oracle_family(g):
        # every matching by an edge subset sweep: used[x] is the vertex mask
        # that edge subset x covers, or -1 unless x is a matching
        edges = g.edge_labels()
        idx = {lab: i for i, lab in enumerate(g.labels)}
        used = [0] * (1 << len(edges))
        for x in range(1, 1 << len(edges)):
            low = x & -x
            a, b = edges[low.bit_length() - 1]
            pair = 1 << idx[a] | 1 << idx[b]
            rest = used[x ^ low]
            used[x] = -1 if rest < 0 or rest & pair else rest | pair
        best = max(x.bit_count() for x in range(1 << len(edges)) if used[x] >= 0)
        return sorted(
            [edges[e] for e in range(len(edges)) if x >> e & 1]
            for x in range(1 << len(edges))
            if used[x] >= 0 and x.bit_count() == best
        )

    graphs = [g for n in range(1, 7) for g in connected_by_n[n]]
    graphs += [g for n in range(3, 9) for g in unicyclic_by_n[n]]
    graphs.append(Graph.from_edges(isolated=["a", "b", "c"]))
    graphs.append(_disjoint_union([path(3), cycle(5), complete(4)], 0))
    for g in graphs:
        fam = [m.edge_labels() for m in enumerate_maximum_matchings(g)]
        assert fam == oracle_family(g), g.edge_labels()


def test_enumerate_maximum_matchings_budgets():
    assert len(enumerate_maximum_matchings(complete(3), Budgets(matching_limit=3))) == 3
    with pytest.raises(BudgetExceededError, match="more than 2 maximum matchings"):
        enumerate_maximum_matchings(complete(3), Budgets(matching_limit=2))
    with pytest.raises(BudgetExceededError):
        enumerate_maximum_matchings(path(21), Budgets(enum_n=20))


def test_mu_critical_edges_match_direct_recomputation(all_fixtures):
    for name, g in all_fixtures.items():
        if g.m > 14:
            continue
        base = oracle_mu(g)
        for u, v in g.edge_labels():
            direct = oracle_mu(g.delete_edge(u, v)) < base
            assert is_mu_critical_edge(g, u, v) == direct, (name, u, v)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_mu_matches_oracle_on_random_connected(n, seed):
    g = random_connected(n, seed)
    if g.m > 16:
        return
    assert mu(g) == oracle_mu(g)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_gallai_bound_alpha_plus_mu_at_most_n(n, seed):
    g = random_connected(n, seed)
    assert alpha(g) + mu(g) <= g.n
    assert mu(g) <= g.n // 2
