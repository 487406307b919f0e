"""Graph construction, parsing, vertex sets, and shape classification."""

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from corekit import (
    DomainError,
    Graph,
    OwnershipError,
    ParseError,
    classify_shape,
    fixture,
    parse_edge_list,
    random_connected,
    random_unicyclic,
    serialize,
)
from corekit.graph import _components_in, _strip_to_cycles
from helpers import strip_to_cycles_reference, two_coloring_reference

from test_independence import _disjoint_union


def test_from_edges_basic():
    g = Graph.from_edges([("a", "b"), ("b", "c")], isolated=["z"])
    assert g.n == 4
    assert g.m == 2
    assert g.has_edge("a", "b")
    assert g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.degree("b") == 2
    assert g.degree("z") == 0
    assert g.edge_labels() == [("a", "b"), ("b", "c")]


def test_from_edges_rejects_self_loop_and_duplicate():
    with pytest.raises(DomainError):
        Graph.from_edges([("a", "a")])
    with pytest.raises(DomainError):
        Graph.from_edges([("a", "b"), ("b", "a")])


def test_label_validation():
    for bad in ["", " ", "a b", "x#y", "node", "a\tb"]:
        with pytest.raises(DomainError):
            Graph.from_edges([(bad, "ok")])


def test_label_check_agrees_with_per_character_scan():
    """_check_label's split() test rejects exactly the labels that the
    per-character whitespace scan it replaced rejected."""
    from corekit.graph import _check_label

    def scan_rejects(label):
        return not label or label != label.strip() or any(c.isspace() for c in label)

    points = set(range(0x3100)) | {c for c in range(0x110000) if chr(c).isspace()}
    for c in points:
        ch = chr(c)
        for label in (ch, f"a{ch}b", f"{ch}a"):
            try:
                _check_label(label)
                rejected = False
            except DomainError as exc:
                rejected = "whitespace-free" in str(exc)
            assert rejected == scan_rejects(label), hex(c)


def test_index_of_unknown_vertex():
    g = Graph.from_edges([("a", "b")])
    with pytest.raises(DomainError):
        g.index_of("zzz")


def test_parse_comments_blanks_and_isolated():
    text = """
    # leading comment
    a b  # trailing comment
    node w

    b c
    """
    g = parse_edge_list(text)
    assert sorted(g.labels) == ["a", "b", "c", "w"]
    assert g.m == 2
    assert g.degree("w") == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_edge_list("a b\na b\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_edge_list("a b\nx x\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_edge_list("a b c\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list("node w\nnode w\n")
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n")
    with pytest.raises(ParseError):
        parse_edge_list("")


def test_serialize_is_canonical_and_round_trips():
    g = parse_edge_list("b a\nnode z\nc a\n")
    text = serialize(g)
    assert text == "node z\na b\na c\n"
    h = parse_edge_list(text)
    assert serialize(h) == text
    assert sorted(h.labels) == sorted(g.labels)
    assert h.edge_labels() == g.edge_labels()


def test_serialize_every_fixture_round_trips(all_fixtures):
    for name, g in all_fixtures.items():
        h = parse_edge_list(serialize(g))
        assert serialize(h) == serialize(g), name


def test_vertex_set_algebra():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    s = g.set_of(["a", "c"])
    t = g.set_of(["c", "d"])
    assert (s | t).labels() == ("a", "c", "d")
    assert (s & t).labels() == ("c",)
    assert (s - t).labels() == ("a",)
    assert s.complement().labels() == ("b", "d")
    assert len(s) == 2
    assert "a" in s and "d" not in s
    assert list(s) == ["a", "c"]
    assert g.set_of(["c", "a"]) == s
    assert (s & t) <= s


def test_vertex_sets_refuse_to_mix_graphs():
    g = Graph.from_edges([("a", "b")])
    h = Graph.from_edges([("a", "b")])
    with pytest.raises(OwnershipError):
        g.full_set() | h.full_set()
    with pytest.raises(OwnershipError):
        g.full_set() == h.full_set()


def test_neighborhood_is_the_full_open_neighborhood():
    # N(X) may intersect X: members adjacent to members stay in.
    g = Graph.from_edges([("a", "b"), ("b", "c")])
    ab = g.set_of(["a", "b"])
    assert g.neighborhood(ab).labels() == ("a", "b", "c")
    a = g.set_of(["a"])
    assert g.neighborhood(a).labels() == ("b",)
    assert g.neighborhood(a, closed=True).labels() == ("a", "b")


def test_induced_subgraph_and_delete():
    g = parse_edge_list("a b\nb c\nc d\nd a\na c\n")
    sub = g.induced_subgraph(g.set_of(["a", "b", "c"]))
    assert sorted(sub.labels) == ["a", "b", "c"]
    assert sub.m == 3
    rest = g.delete_vertices(g.set_of(["a"]))
    assert sorted(rest.labels) == ["b", "c", "d"]
    assert rest.m == 2
    less = g.delete_edge("a", "c")
    assert less.m == g.m - 1
    with pytest.raises(DomainError):
        g.delete_edge("a", "zzz")


def test_components_ordering_and_count():
    g = Graph.from_edges([("d", "c"), ("a", "b")], isolated=["q"])
    comps = [g.set_from_mask(c) for c in g.components()]
    assert len(comps) == 3
    # masks ordered by smallest contained vertex index
    assert [sorted(c.labels()) for c in comps] == [["q"], ["c", "d"], ["a", "b"]]


@pytest.mark.parametrize(
    "name,kind,connected,bipartite",
    [
        ("p2", "tree", True, True),
        ("p3", "tree", True, True),
        ("k1", "tree", True, True),
        ("c4", "unicyclic", True, True),
        ("c5", "unicyclic", True, False),
        ("k3", "unicyclic", True, False),
        ("uni7-ke", "unicyclic", True, False),
        ("uni10-nonke", "unicyclic", True, False),
        ("tree5-pendant", "tree", True, True),
        ("bicyclic10-ke", "other", True, False),
        ("bicyclic9-nonke", "other", True, False),
    ],
)
def test_shape_classification(name, kind, connected, bipartite):
    shape = classify_shape(fixture(name))
    assert shape.kind == kind
    assert shape.connected is connected
    assert shape.bipartite is bipartite


def test_shape_forest():
    g = Graph.from_edges([("a", "b"), ("c", "d")])
    shape = classify_shape(g)
    assert shape.kind == "forest"
    assert not shape.connected
    assert shape.bipartite


def test_component_walk_gives_the_two_colouring(connected_by_n, unicyclic_by_n, trees_by_n):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    graphs += [g for n in range(3, 11) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [random_connected(2 + s % 19, s) for s in range(200)]
    # disjoint unions in shuffled order, some with isolated vertices (which
    # _disjoint_union puts first), and the 0-vertex graph
    rng = random.Random(20)
    k1 = Graph.from_edges(isolated=("z",))
    for _ in range(100):
        parts = rng.sample(graphs, rng.randint(1, 4)) + [k1] * rng.randint(0, 2)
        rng.shuffle(parts)
        graphs.append(_disjoint_union(parts))
    graphs.append(Graph.from_edges())
    kinds = Counter()
    for g in graphs:
        full = (1 << g.n) - 1
        for comp, left in _components_in(g.adj, full):
            assert left == two_coloring_reference(g.adj, comp), serialize(g)
            kinds[left is None] += 1
        bipartite = two_coloring_reference(g.adj, full) is not None
        assert classify_shape(g).bipartite == bipartite, serialize(g)
    assert kinds[True] > 500 and kinds[False] > 500


def test_strip_to_cycles_keeps_the_survivors_of_the_rescanning_strip(
    connected_by_n, unicyclic_by_n, trees_by_n
):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]]
    graphs += [g for n in range(3, 11) for g in unicyclic_by_n[n]]
    graphs += [g for n in range(1, 11) for g in trees_by_n[n]]
    graphs += [random_connected(2 + s % 19, s) for s in range(200)]
    graphs += [random_unicyclic(n, s) for n in (300, 1000) for s in range(3)]
    rng = random.Random(21)
    for _ in range(100):
        graphs.append(_disjoint_union(rng.sample(graphs, rng.randint(2, 4))))
    cores = Counter()
    for g in graphs:
        full = (1 << g.n) - 1
        # the whole graph and a random induced subgraph of it
        for active in (full, rng.getrandbits(g.n) if g.n else 0):
            got = _strip_to_cycles(g.adj, active)[0]
            assert got == strip_to_cycles_reference(g.adj, active), serialize(g)
            cores[got == 0] += 1
    assert cores[True] > 500 and cores[False] > 500


# -- one bit iterator ------------------------------------------------------------

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "corekit"

# the only functions that may walk every set bit of a mask by hand: the two
# helpers, and four hot loops kept inline for speed (the comment over the
# mask helpers in graph.py gives the measurement)
HAND_WALKS = {
    "graph._bits",
    "graph._union",
    "graph._edge_count",
    "graph._strip_to_cycles",
    "independence._forest_dp",
    "independence._bb_set",
}


def _own_nodes(loop: ast.While):
    """The nodes of the loop's body, not descending into nested loops or
    functions: those are judged on their own."""
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.While, ast.For, ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _walks_every_bit(loop: ast.While) -> bool:
    """True if the loop itself binds b = x & -x and clears that b from x
    (x ^= b, x -= b or x &= ~b), with b bound nowhere else in the loop: a
    walk over every set bit of x. A loop that clears more than the low bit,
    or grows it, is a pick."""
    bound: Counter = Counter()
    for node in ast.walk(loop):
        if isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            bound[node.target.id] += 1
    low = {}
    clears = []
    for node in _own_nodes(loop):
        text = ast.unparse(node) if isinstance(node, (ast.Assign, ast.AugAssign)) else ""
        if m := re.fullmatch(r"((?:\w+ = )+)(\w+) & -\2", text):
            low.update(dict.fromkeys(m[1].split(" = ")[:-1], m[2]))
        elif m := re.fullmatch(r"(\w+) (?:\^= |-= |&= ~)(\w+)", text):
            clears.append((m[1], m[2]))
    return any(low.get(b) == x and bound[b] == 1 for x, b in clears)


def _hand_walks(node: ast.AST, name: str):
    """(qualified function name, loop) for each hand-written walk under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _hand_walks(child, f"{name}.{child.name}")
            continue
        if isinstance(child, ast.While) and _walks_every_bit(child):
            yield name, child
        yield from _hand_walks(child, name)


def test_every_walk_over_a_mask_is_bits_union_or_a_named_hot_loop():
    found = {}
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for name, loop in _hand_walks(ast.parse(source), path.stem):
            found.setdefault(name, []).append(lines[loop.lineno - 1])
    assert set(found) == HAND_WALKS
    # each hot loop carries its reason on the loop line
    for name, heads in found.items():
        if name not in ("graph._bits", "graph._union"):
            assert all("# inline, not _bits" in head for head in heads), name
