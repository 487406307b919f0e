"""Fixture catalog, graph family generators, enumeration counts, and
canonical codes."""

import hashlib
import random
from itertools import groupby, permutations

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
    NotUnicyclicError,
    prufer_decode,
    random_connected,
    random_tree,
    random_unicyclic,
    serialize,
    tree_code,
    unicyclic_code,
)
from corekit import corpus
from corekit.corpus import _byte_maps, _canonical_mask, _family_orders, _labelling_table
from corekit.graph import _bits, _strip_to_cycles
from helpers import (
    automorphisms_reference,
    canonical_mask_reference,
    connected_levels_reference,
    labeled_trees,
    labeled_unicyclic,
    labelling_table_reference,
    lighter_deletion_reference,
    oracle_alpha,
    oracle_core,
    oracle_ker,
    oracle_mu,
    tree_centers_reference,
    tree_code_reference,
    trees_reference,
    unicyclic_code_reference,
    unicyclic_reference,
)

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
    # a sequence of length k names the vertices 0..k+1
    assert prufer_decode((2,)).n == 3
    for seq in ((-1,), (5,), (3,), (0, 5, 1)):
        with pytest.raises(DomainError, match="Pruefer entries must lie in"):
            prufer_decode(seq)


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
        labeled = list(labeled_trees(n))
        assert len(labeled) == n ** (n - 2), n


def test_labeled_and_deduped_trees_cover_the_same_codes():
    labeled = {tree_code(g) for g in labeled_trees(6)}
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
        labeled = list(labeled_unicyclic(n))
        assert len(labeled) == want, n


def test_labeled_and_deduped_unicyclic_cover_the_same_codes():
    labeled = {unicyclic_code(g) for g in labeled_unicyclic(6)}
    deduped = {unicyclic_code(g) for g in enumerate_unicyclic(6)}
    assert labeled == deduped


def _built(graphs):
    return [(g.labels, g.adj, g.m) for g in graphs]


def test_tree_and_unicyclic_streams_equal_the_graph_per_candidate_loops(
    trees_by_n, unicyclic_by_n
):
    # the enumerators build each graph from its int adjacency; the loops
    # build it with Graph.from_edges, which fixes the order of the labels
    for n in range(1, 13):
        assert _built(trees_by_n[n]) == _built(trees_reference(n)), n
    for n in range(3, 11):
        assert _built(unicyclic_by_n[n]) == _built(unicyclic_reference(n)), n


# sha256 over serialize() and the labels of each graph of family_items(family,
# 10), recorded on the graph-per-candidate loops that the int-adjacency codes
# replaced
STREAM_10_SHA256 = {
    "trees": "09efdd47b087f1b888fa6237663498a1dfd171caa3c2b55756fb062a05c03b7f",
    "unicyclic": "50c592640ddae2d68900a3475586ad77d027fa7a2fb8c0233183200440fa6d37",
}


def test_tree_and_unicyclic_streams_to_ten_are_pinned():
    for family, want in STREAM_10_SHA256.items():
        h = hashlib.sha256()
        for _, g in family_items(family, max_n=10):
            h.update(serialize(g).encode())
            h.update((" ".join(g.labels) + "\n").encode())
        assert h.hexdigest() == want, family


def test_added_edge_codes_equal_unicyclic_code_on_every_candidate(trees_by_n):
    skipped = 0
    for n in range(3, 10):
        for t in trees_by_n[n]:
            got = list(corpus._added_edge_codes(t.adj, n))
            # the lowest vertex of each vertex's twin class, by its row
            rep = [min(u for u in range(n) if t.adj[u] == t.adj[v]) for v in range(n)]
            non_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if not t.adj[i] >> j & 1]
            # the twin swap that maps a skipped pair to an earlier one
            image = {}
            for i, j in non_edges:
                if rep[i] < i:
                    image[i, j] = (rep[i], j)
                elif rep[j] < j and rep[j] != i:
                    image[i, j] = tuple(sorted((i, rep[j])))
            assert [(i, j) for i, j, _ in got] == [p for p in non_edges if p not in image]
            tree_edges = t.edge_labels()

            def code_of(i, j):
                return unicyclic_code(Graph.from_edges(tree_edges + [(t.labels[i], t.labels[j])]))

            for i, j, code in got:
                assert code == code_of(i, j), (serialize(t), i, j)
            for (i, j), (a, b) in image.items():
                assert (a, b) < (i, j) and not t.adj[a] >> b & 1
                assert code_of(i, j) == code_of(a, b), (serialize(t), i, j)
            skipped += len(image)
    # of the 2049 non-edges of the trees on 3 to 9 vertices
    assert skipped == 676


def _height(adj, root):
    """The height of the tree with adjacency adj rooted at root."""
    depth = {root: 0}
    order = [root]
    for v in order:
        for u in _bits(adj[v]):
            if u not in depth:
                depth[u] = depth[v] + 1
                order.append(u)
    return max(depth.values())


def test_the_first_sequence_of_each_tree_class_is_a_leaf_at_the_diameter():
    # what enumerate_trees's skips rest on: the first canonical sequence of
    # each free tree, in the order _level_sequences lists them, is rooted at
    # a leaf whose height is the tree's diameter
    counts = {**FREE_TREE_COUNTS, 13: 1301}
    for n in range(2, 14):
        seen = set()
        for seq in corpus._level_sequences(n):
            parent = corpus._level_parents(seq)
            adj = [0] * n
            for v in range(1, n):
                adj[v] |= 1 << parent[v]
                adj[parent[v]] |= 1 << v
            code = corpus._tree_code(adj, n)
            if code in seen:
                continue
            seen.add(code)
            assert seq.count(2) == 1, seq
            diameter = max(_height(adj, v) for v in range(n))
            assert max(seq) - 1 == diameter, seq
        assert len(seen) == counts[n], n


def test_connected_counts(connected_by_n):
    for n, want in CONNECTED_COUNTS.items():
        assert len(connected_by_n[n]) == want, n
    for g in connected_by_n[5]:
        assert classify_shape(g).connected


def _row_major_bits(n):
    """pairs i < j in row-major order, and bit[i][j] = 1 << (index of the pair)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        bit[i][j] = bit[j][i] = 1 << k
    return pairs, bit


def _mask_of(g):
    """The edge mask of a graph on v1..vn, read from its labels."""
    _, bit = _row_major_bits(g.n)
    return sum(bit[int(a[1:]) - 1][int(b[1:]) - 1] for a, b in g.edge_labels())


def _sweep_connected(n):
    """Reference: sweep every edge mask and keep the connected ones whose
    degree vector is non-increasing and that no degree-preserving
    permutation of the positions makes smaller."""
    if n == 1:
        yield Graph.from_edges(isolated=("v1",))
        return
    pairs, bit = _row_major_bits(n)
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        deg = [sum(v in e for e in edges) for v in range(n)]
        if deg != sorted(deg, reverse=True) or deg[-1] == 0:
            continue
        g = Graph.from_edges([(f"v{i + 1}", f"v{j + 1}") for i, j in edges])
        if not classify_shape(g).connected:
            continue
        if all(
            sum(bit[perm[i]][perm[j]] for i, j in edges) >= mask
            for perm in permutations(range(n))
            if all(deg[perm[v]] == deg[v] for v in range(n))
        ):
            yield g


def test_connected_stream_matches_the_edge_mask_sweep(connected_by_n):
    for n in range(1, 7):
        want = [serialize(g) for g in _sweep_connected(n)]
        assert [serialize(g) for g in connected_by_n[n]] == want, n


def test_connected_levels_build_the_graphs_of_their_edge_lists():
    for n, (pairs, masks) in zip(range(1, 8), corpus._connected_levels(7)):
        if not pairs:
            want = [Graph.from_edges(isolated=("v1",))]
        else:
            want = [Graph.from_edges([(f"v{i + 1}", f"v{j + 1}")
                                      for b, (i, j) in enumerate(pairs) if mask >> b & 1])
                    for mask in masks]
        assert _built(corpus._level_graphs(pairs, masks)) == _built(want), n


# sha256 of the concatenated serialize() texts of the n=7 stream, recorded on
# the edge-mask sweep that vertex augmentation replaced
CONNECTED_7_SHA256 = "d5f576780231cb8fadf545ec749bf6d2b3c3f7cfd808ba0e31bda0b893a9ef81"


def test_connected_stream_at_seven_is_pinned(connected_by_n):
    text = "".join(serialize(g) for g in connected_by_n[7])
    assert hashlib.sha256(text.encode()).hexdigest() == CONNECTED_7_SHA256


def test_canonical_mask_is_labelling_free_and_in_the_stream(connected_by_n):
    stream = {_mask_of(g) for g in connected_by_n[7]}
    assert len(stream) == CONNECTED_COUNTS[7]
    _, bit = _row_major_bits(7)
    for s in range(50):
        g = random_connected(7, s)
        perm = list(range(7))
        random.Random(s).shuffle(perm)
        moved = [0] * 7
        for u, v in g.edges():
            moved[perm[u]] |= 1 << perm[v]
            moved[perm[v]] |= 1 << perm[u]
        canon = _canonical_mask(list(g.adj), 7, bit, {})
        assert _canonical_mask(moved, 7, bit, {}) == canon, s
        assert canon in stream, s


def test_canonical_mask_equals_the_labelling_loop_on_every_candidate(monkeypatch):
    calls = []

    def recording(adj, n, bit, tables):
        calls.append((list(adj), n, bit))
        return _canonical_mask(adj, n, bit, tables)

    monkeypatch.setattr(corpus, "_canonical_mask", recording)
    assert len(list(corpus.enumerate_connected_graphs(6))) == CONNECTED_COUNTS[6]
    assert len(calls) == 1 + 2 + 6 + 23 + 137
    assert {n for _, n, _ in calls} == {2, 3, 4, 5, 6}
    for adj, n, bit in calls:
        assert _canonical_mask(adj, n, bit, {}) == canonical_mask_reference(adj, n, bit), adj


@pytest.fixture(scope="module")
def unfiltered_levels():
    """k -> (bit, candidates, masks) of the augmentation without the
    deletion filter, k = 1..7."""
    return dict(enumerate(connected_levels_reference(7), start=1))


def test_connected_levels_equal_the_unfiltered_augmentation(unfiltered_levels):
    for k, (pairs, masks) in enumerate(corpus._connected_levels(7), start=1):
        assert len(pairs) == k * (k - 1) // 2
        assert masks == unfiltered_levels[k][2], k


def test_dropped_candidates_are_in_their_level_and_meet_the_rule(monkeypatch, unfiltered_levels):
    kept = []

    def recording(adj, n, bit, tables):
        kept.append(tuple(adj))
        return _canonical_mask(adj, n, bit, tables)

    monkeypatch.setattr(corpus, "_canonical_mask", recording)
    levels = [masks for _, masks in corpus._connected_levels(7)]
    kept_at = {}
    for adj in kept:
        kept_at.setdefault(len(adj), set()).add(adj)
    assert [len(kept_at.get(k, ())) for k in range(2, 8)] == [1, 2, 6, 23, 137, 1192]
    assert len(kept) == 1361
    for k in range(2, 8):
        bit, candidates, _ = unfiltered_levels[k]
        tables = {}
        level = set(levels[k - 1])
        automorphisms = {}
        for adj in candidates:
            # the candidate is its parent plus vertex k - 1 joined to S
            parent = tuple(a & ~(1 << (k - 1)) for a in adj[:-1])
            if parent not in automorphisms:
                automorphisms[parent] = automorphisms_reference(parent, k - 1)
            s = adj[k - 1]
            moved_lower = any(
                sum(1 << sigma[v] for v in _bits(s)) < s for sigma in automorphisms[parent]
            )
            dropped = tuple(adj) not in kept_at[k]
            assert dropped == (lighter_deletion_reference(adj, k) or moved_lower), adj
            if dropped:
                assert _canonical_mask(adj, k, bit, tables) in level, adj


def test_automorphism_images_are_the_automorphisms_of_every_parent():
    for k, (pairs, masks) in enumerate(corpus._connected_levels(6), start=1):
        if k < 2:
            continue
        _, bit = _row_major_bits(k)
        tables = {}
        for mask in masks:
            adj = _adjacency(k, [pairs[b] for b in _bits(mask)])
            m, images = corpus._automorphism_images(adj, k, mask, bit, tables)
            # byte i of images[v] is 1 << sigma_i(v)
            columns = [images[v].to_bytes(m, "big") for v in range(k)]
            read = [tuple(col[i].bit_length() - 1 for col in columns) for i in range(m)]
            assert read == automorphisms_reference(adj, k), (k, mask)


def _column_major_bits(n):
    """bit[i][j] = 1 << (index of the pair i < j in column-major order)."""
    pairs = sorted(((i, j) for i in range(n) for j in range(i + 1, n)), key=lambda p: (p[1], p[0]))
    bit = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        bit[i][j] = bit[j][i] = 1 << k
    return bit


def test_labelling_table_equals_the_list_builder_on_every_run_structure():
    built = 0
    for k in range(1, 8):
        for bit in (_row_major_bits(k)[1], _column_major_bits(k)):
            maps = _byte_maps(bit)
            for cuts in range(1 << (k - 1)):
                # bit i of cuts ends a run after position i
                runs, size = [], 1
                for i in range(k - 1):
                    if cuts >> i & 1:
                        runs.append(size)
                        size = 0
                    size += 1
                runs = tuple(runs + [size])
                assert _labelling_table(runs, maps) == labelling_table_reference(runs, bit), runs
                built += 1
    assert built == 2 * (2**7 - 1)


def test_lighter_deletion_passes_over_a_lighter_cut_vertex():
    # two K4s, {0, 1, 2, 8} and {4, 5, 6, 7}, joined by the path 2 - 3 - 4:
    # vertex 3 is lighter than 8 but cuts the graph, and every vertex that
    # does not cut it has degree 3 or more, so the candidate with v = 8 is
    # the one kept; below 9 vertices no such graph exists
    edges = [(a, b) for q in ((0, 1, 2, 8), (4, 5, 6, 7)) for a in q for b in q if a < b]
    adj = _adjacency(9, edges + [(2, 3), (3, 4)])
    assert not corpus._lighter_deletion(adj, 9, 3)
    assert not lighter_deletion_reference(adj, 9)
    # with 2 and 8 swapped, v has degree 4, and 0 and 1 are lighter and do not cut
    swap = list(range(9))
    swap[2], swap[8] = 8, 2
    moved = _adjacency(9, [(swap[a], swap[b]) for a, b in edges + [(2, 3), (3, 4)]])
    assert corpus._lighter_deletion(moved, 9, 4)
    assert lighter_deletion_reference(moved, 9)


def test_canonical_mask_equals_the_labelling_loop_on_every_unfiltered_candidate(
    unfiltered_levels,
):
    count = 0
    for k in range(2, 7):
        bit, candidates, _ = unfiltered_levels[k]
        for adj in candidates:
            assert _canonical_mask(adj, k, bit, {}) == canonical_mask_reference(adj, k, bit), adj
        count += len(candidates)
    assert count == 1 + 3 + 14 + 90 + 651


def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_canonical_mask_equals_the_labelling_loop_on_seven_vertices():
    pairs, bit = _row_major_bits(7)
    graphs = []
    for s in range(300):
        mask = random.Random(s).getrandbits(len(pairs))
        graphs.append(_adjacency(7, [p for k, p in enumerate(pairs) if mask >> k & 1]))
    cycle7 = [(i, (i + 1) % 7) for i in range(7)]
    named = [
        cycle7,
        pairs,  # K7
        [(i, j) for i in range(3) for j in range(3, 7)],  # K_{3,4}
        [p for p in pairs if p not in cycle7 and p[::-1] not in cycle7],
        [],
    ]
    graphs += [_adjacency(7, edges) for edges in named]
    # a matrix other than the row-major one gets tables of its own
    column_major = _column_major_bits(7)
    row_tables, column_tables = {}, {}
    for adj in graphs:
        for b, tables in ((bit, row_tables), (column_major, column_tables), (bit, row_tables)):
            assert _canonical_mask(adj, 7, b, tables) == canonical_mask_reference(adj, 7, b), adj


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


def test_codes_equal_the_rooted_code_reference(trees_by_n, unicyclic_by_n):
    for n in range(1, 12):
        for t in trees_by_n[n]:
            assert tree_code(t) == tree_code_reference(t), serialize(t)
    for n in range(3, 11):
        for g in unicyclic_by_n[n]:
            assert unicyclic_code(g) == unicyclic_code_reference(g), serialize(g)
    for n in (50, 200):
        for seed in range(3):
            t = random_tree(n, seed)
            assert tree_code(t) == tree_code_reference(t), (n, seed)
            g = random_unicyclic(n, seed)
            assert unicyclic_code(g) == unicyclic_code_reference(g), (n, seed)


def test_the_leaf_peel_ends_at_the_tree_centres():
    trees = []
    for n in range(1, 13):
        for seq in corpus._level_sequences(n):
            parent = corpus._level_parents(seq)
            adj = [0] * n
            for v in range(1, n):
                adj[v] |= 1 << parent[v]
                adj[parent[v]] |= 1 << v
            trees.append((adj, n))
    assert len(trees) == 7813  # the rooted trees on 1..12 vertices
    trees += [(t.adj, t.n) for n in (50, 200) for t in (random_tree(n, s) for s in range(3))]
    # deeper than the interpreter's recursion limit: the peel is a loop
    path = Graph.from_edges([(f"v{i}", f"v{i + 1}") for i in range(3000)])
    trees.append((path.adj, path.n))
    for adj, n in trees:
        survivors, last = _strip_to_cycles(adj, (1 << n) - 1)
        assert survivors == 0
        assert [v for v in range(n) if last >> v & 1] == tree_centers_reference(adj, n), adj
    assert last == 1 << path.index_of("v1500")


def test_tree_code_refuses_graphs_that_are_not_trees(monkeypatch):
    # a refused graph reaches neither the centre search nor the code
    def no_centres(*args):
        raise AssertionError("tree_code looked for the centres of a non-tree")

    def no_code(*args):
        raise AssertionError("tree_code coded a non-tree")

    monkeypatch.setattr(corpus, "_strip_to_cycles", no_centres)
    monkeypatch.setattr(corpus, "_branch_code", no_code)
    two_k2 = Graph.from_edges([("a", "b"), ("c", "d")])
    for g in (fixture("c4"), two_k2, Graph.from_edges()):
        with pytest.raises(DomainError, match="tree_code needs a tree"):
            tree_code(g)


def test_unicyclic_code_refuses_graphs_that_are_not_connected_unicyclic():
    diamond = Graph.from_edges([("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
    bowtie = Graph.from_edges(
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")]
    )
    c3_k2 = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
    for g in (fixture("p3"), diamond, bowtie, c3_k2):
        with pytest.raises(NotUnicyclicError, match="unicyclic_code needs"):
            unicyclic_code(g)
    assert unicyclic_code(fixture("k3")) == "3:()()()"


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
    # at n = 2 the Pruefer sequence is empty and decodes to the one edge
    for s in (0, 1, 7, 49):
        assert serialize(random_tree(2, s)) == "v1 v2\n"
        assert serialize(random_connected(2, s)) == "v1 v2\n"
    # different seeds give different graphs at least somewhere
    assert any(
        serialize(random_tree(10, s)) != serialize(random_tree(10, s + 1))
        for s in range(5)
    )


def _random_unicyclic_by_listing(n, seed):
    """Reference: the same draws, picking the non-edge from a full list."""
    rng = random.Random(f"unicyclic:{n}:{seed}")
    t = prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)))
    non_edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not t.adj[i] >> j & 1
    ]
    i, j = non_edges[rng.randrange(len(non_edges))]
    return Graph.from_edges(list(t.edge_labels()) + [(t.labels[i], t.labels[j])])


def test_random_unicyclic_matches_the_listing_reference():
    cases = [(n, s) for n in range(3, 31) for s in range(10)] + [(300, 0), (300, 1)]
    for n, s in cases:
        got = serialize(random_unicyclic(n, s))
        assert got == serialize(_random_unicyclic_by_listing(n, s)), (n, s)


def test_random_unicyclic_needs_no_quadratic_list():
    g = random_unicyclic(20000, 0)
    assert g.n == g.m == 20000
    assert classify_shape(g).kind == "unicyclic"


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
    # the orders that the CLI checks its budgets on are those of the stream
    for family, max_n, count, size in [
        ("fixtures", None, None, None), ("trees", 5, None, None), ("unicyclic", 6, None, None),
        ("connected", 5, None, None), ("kernel-gap", 3, None, None),
        ("random-unicyclic", None, 2, 9), ("random-connected", None, 0, 9),
    ]:
        orders = _family_orders(family, max_n, Budgets(), count, size)
        streamed = [g.n for _, g in family_items(family, max_n, count, size)]
        assert [n for n, _ in groupby(orders)] == [n for n, _ in groupby(streamed)], family
