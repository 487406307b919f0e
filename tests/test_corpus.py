"""Fixture catalog, graph family generators, enumeration counts, and
canonical codes."""

import pytest

from corekit import (
    BudgetExceededError,
    Budgets,
    DomainError,
    FIXTURE_NAMES,
    Graph,
    alpha,
    classify_shape,
    core,
    enumerate_mis,
    enumerate_trees,
    enumerate_unicyclic,
    family_items,
    fixture,
    is_koenig_egervary,
    ker,
    kernel_gap_family,
    mu,
    prufer_decode,
    random_connected,
    random_tree,
    random_unicyclic,
    serialize,
    tree_code,
    unicyclic_code,
)
from helpers import oracle_alpha, oracle_core, oracle_ker, oracle_mu

# structural goldens: n, m, sorted degree sequence
FIXTURE_SHAPES = {
    "uni7-ke": (7, 7, (1, 1, 2, 2, 2, 3, 3)),
    "uni10-nonke": (10, 10, (1, 1, 1, 2, 2, 2, 2, 2, 3, 4)),
    "tree5-pendant": (5, 4, (1, 1, 1, 2, 3)),
    "uni9-ke": (9, 9, (1, 1, 1, 2, 2, 2, 3, 3, 3)),
    "uni7-ke-kereq": (7, 7, (1, 1, 2, 2, 2, 3, 3)),
    "bicyclic10-nonke": (10, 11, (1, 1, 2, 2, 2, 2, 2, 3, 3, 4)),
    "uni8-nonke": (8, 8, (1, 1, 2, 2, 2, 2, 3, 3)),
    "bicyclic10-ke": (10, 11, (2, 2, 2, 2, 2, 2, 2, 2, 3, 3)),
    "bicyclic9-nonke": (9, 10, (2, 2, 2, 2, 2, 2, 2, 3, 3)),
    "p2": (2, 1, (1, 1)),
    "p3": (3, 2, (1, 1, 2)),
    "c4": (4, 4, (2, 2, 2, 2)),
    "c5": (5, 5, (2, 2, 2, 2, 2)),
    "k1": (1, 0, (0,)),
    "k3": (3, 3, (2, 2, 2)),
}


def test_every_fixture_parses_with_expected_shape(all_fixtures):
    assert set(FIXTURE_NAMES) == set(FIXTURE_SHAPES)
    for name, g in all_fixtures.items():
        n, m, degs = FIXTURE_SHAPES[name]
        assert g.n == n, name
        assert g.m == m, name
        assert tuple(sorted(g.degree(l) for l in g.labels)) == degs, name


def test_unknown_fixture_name():
    with pytest.raises(Exception):
        fixture("definitely-not-a-fixture")


def test_kernel_gap_family_invariants():
    for k in range(1, 7):
        g = kernel_gap_family(k)
        assert g.n == 2 * k + 5  # x, y, z, v1..v_{2k+1}, w
        shape = classify_shape(g)
        assert shape.connected and shape.kind == "unicyclic" and not shape.bipartite
        assert alpha(g) == k + 3
        assert mu(g) == k + 2
        assert is_koenig_egervary(g)
        assert sorted(ker(g).labels()) == ["x", "z"]
        expected_core = {"x", "z"} | {f"v{i}" for i in range(1, 2 * k, 2)}
        assert set(core(g).labels()) == expected_core
        # the kernel-to-core gap grows linearly: |core| - |ker| = k
        assert len(core(g)) - len(ker(g)) == k


def test_kernel_gap_small_cases_exactly():
    g1 = kernel_gap_family(1)
    assert oracle_alpha(g1) == 4
    assert oracle_mu(g1) == 3
    assert oracle_core(g1) == {"v1", "x", "z"}
    assert oracle_ker(g1) == {"x", "z"}
    fam = [list(s.labels()) for s in enumerate_mis(g1)]
    assert fam == [["v1", "v3", "x", "z"], ["v1", "w", "x", "z"]]
    g2 = kernel_gap_family(2)
    assert oracle_alpha(g2) == 5
    assert oracle_mu(g2) == 4
    assert oracle_ker(g2) == {"x", "z"}


def test_kernel_gap_rejects_bad_k():
    for bad in (0, -1):
        with pytest.raises(DomainError):
            kernel_gap_family(bad)


def test_prufer_decode():
    g = prufer_decode(())
    assert g.n == 2 and g.m == 1
    seq = (0, 0, 0)
    star = prufer_decode(seq)
    assert star.n == 5
    assert classify_shape(star).kind == "tree"
    degs = sorted(star.degree(l) for l in star.labels)
    assert degs == [1, 1, 1, 1, 4]
    # degree = multiplicity in the sequence + 1
    t = prufer_decode((2, 0, 2))
    assert classify_shape(t).kind == "tree"
    assert sorted(t.degree(l) for l in t.labels) == [1, 1, 1, 2, 3]


FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_free_tree_counts(trees_by_n):
    for n, want in FREE_TREE_COUNTS.items():
        got = trees_by_n[n]
        assert len(got) == want, n
        for g in got:
            assert classify_shape(g).kind == "tree"
        codes = {tree_code(g) for g in got}
        assert len(codes) == want, n


def test_labeled_tree_counts_follow_cayley():
    for n in range(2, 8):
        labeled = list(enumerate_trees(n, dedupe=False))
        assert len(labeled) == n ** (n - 2), n


def test_labeled_and_deduped_trees_cover_the_same_codes():
    labeled = {tree_code(g) for g in enumerate_trees(6, dedupe=False)}
    deduped = {tree_code(g) for g in enumerate_trees(6)}
    assert labeled == deduped


def test_unicyclic_counts(unicyclic_by_n):
    for n, want in UNICYCLIC_COUNTS.items():
        got = unicyclic_by_n[n]
        assert len(got) == want, n
        codes = {unicyclic_code(g) for g in got}
        assert len(codes) == want, n
    for g in unicyclic_by_n[7]:
        shape = classify_shape(g)
        assert shape.connected and shape.kind == "unicyclic"


def test_labeled_unicyclic_counts():
    for n, want in {3: 1, 4: 15, 5: 222}.items():
        labeled = list(enumerate_unicyclic(n, dedupe=False))
        assert len(labeled) == want, n


def test_labeled_and_deduped_unicyclic_cover_the_same_codes():
    labeled = {unicyclic_code(g) for g in enumerate_unicyclic(6, dedupe=False)}
    deduped = {unicyclic_code(g) for g in enumerate_unicyclic(6)}
    assert labeled == deduped


def test_connected_counts(connected_by_n):
    for n, want in CONNECTED_COUNTS.items():
        assert len(connected_by_n[n]) == want, n
    for g in connected_by_n[5]:
        assert classify_shape(g).connected


def test_connected_enumeration_bails_above_seven():
    from corekit import enumerate_connected_graphs

    with pytest.raises(BudgetExceededError):
        list(enumerate_connected_graphs(8))


def test_family_items_checks_the_limit_before_the_first_graph():
    with pytest.raises(BudgetExceededError, match="connected-graph enumeration limited to n <= 7"):
        next(family_items("connected", max_n=8))
    small = Budgets(enum_n=5)
    with pytest.raises(BudgetExceededError, match="tree enumeration limited to n <= 5"):
        next(family_items("trees", max_n=6, budgets=small))
    with pytest.raises(BudgetExceededError, match="unicyclic enumeration limited to n <= 5"):
        next(family_items("unicyclic", max_n=6, budgets=small))


def test_codes_are_isomorphism_invariant():
    # relabeling must not change the code
    base = random_tree(9, 3)
    renamed = Graph.from_edges(
        [(f"x{u}", f"x{v}") for u, v in base.edge_labels()]
    )
    assert tree_code(base) == tree_code(renamed)
    ubase = random_unicyclic(9, 3)
    urenamed = Graph.from_edges(
        [(f"longer_{u}", f"longer_{v}") for u, v in ubase.edge_labels()]
    )
    assert unicyclic_code(ubase) == unicyclic_code(urenamed)


def test_random_generators_are_deterministic_and_shaped():
    for n in (1, 2, 5, 12):
        a = random_tree(n, 7)
        b = random_tree(n, 7)
        assert serialize(a) == serialize(b)
        assert classify_shape(a).kind == "tree"
    for n in (3, 5, 12):
        a = random_unicyclic(n, 7)
        b = random_unicyclic(n, 7)
        assert serialize(a) == serialize(b)
        assert classify_shape(a).kind == "unicyclic"
    for n in (2, 5, 12):
        a = random_connected(n, 7)
        b = random_connected(n, 7)
        assert serialize(a) == serialize(b)
        assert classify_shape(a).connected
    # different seeds give different graphs at least somewhere
    assert any(
        serialize(random_tree(10, s)) != serialize(random_tree(10, s + 1))
        for s in range(5)
    )


def test_family_items_ids_and_reproducibility():
    items = list(family_items("random-unicyclic", count=3, size=9, seed=4))
    assert [gid for gid, _ in items] == [
        "rand-uni:n9:s4:0",
        "rand-uni:n9:s4:1",
        "rand-uni:n9:s4:2",
    ]
    again = list(family_items("random-unicyclic", count=3, size=9, seed=4))
    for (gid1, g1), (gid2, g2) in zip(items, again):
        assert gid1 == gid2
        assert serialize(g1) == serialize(g2)
    fixtures = dict(family_items("fixtures"))
    assert set(fixtures) == set(FIXTURE_NAMES)
    trees = list(family_items("trees", max_n=5))
    assert [gid for gid, _ in trees][:3] == ["tree:n1:0", "tree:n2:0", "tree:n3:0"]
    assert len(trees) == sum(FREE_TREE_COUNTS[n] for n in range(1, 6))
    with pytest.raises(DomainError):
        list(family_items("no-such-family", max_n=3))
