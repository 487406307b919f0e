"""Structure of connected unicyclic graphs.

A connected graph with exactly one cycle decomposes into that cycle plus
pendant trees: removing the cycle splits off, for each off-cycle neighbour r
of the cycle, the tree T_r hanging below r. For such
graphs alpha + mu is either n or n - 1, and the n - 1 case (not
Koenig-Egervary) is exactly the case where every cycle edge is alpha-critical.
In that case core, corona and ker are unions of the corresponding sets of the
pendant trees (plus the cycle itself for corona), which the structural_*
functions compute without ever enumerating maximum independent sets of the
whole graph.

Which cycle edges are alpha-critical (_non_critical_cycle_edges, behind
classify_ke_unicyclic and the LEM2 checker) is decided in one linear pass:
one tree DP of the pendant forest, then one prefix and one suffix DP along
the cycle, not an alpha query or a path DP of each G - e.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .critical import ker
from .errors import NotUnicyclicError, PreconditionError
from .graph import (
    Graph,
    VertexSet,
    _bits,
    _components_in,
    _cycle_order,
    _label_pairs,
    _strip_to_cycles,
    _union,
    classify_shape,
)
from .independence import _forest_dp, alpha, core, corona
from .matching import is_koenig_egervary, mu

__all__ = [
    "find_cycle",
    "PendantTree",
    "Decomposition",
    "decompose",
    "KeClassification",
    "classify_ke_unicyclic",
    "structural_core",
    "structural_corona",
    "structural_ker",
]


def _require_unicyclic(g: Graph) -> None:
    shape = classify_shape(g)
    if shape.kind != "unicyclic":
        raise NotUnicyclicError(
            f"expected a connected graph with exactly one cycle, "
            f"got n={g.n}, m={g.m}, connected={shape.connected}"
        )


def find_cycle(g: Graph) -> tuple[str, ...]:
    """The unique cycle, in canonical order: starting at its smallest label
    and moving toward the smaller of that vertex's two cycle neighbours."""
    _require_unicyclic(g)
    return _walk_cycle(g)


def _walk_cycle(g: Graph) -> tuple[str, ...]:
    """find_cycle on a graph already known to be connected unicyclic: the
    index-order walk of the cycle, rotated to its smallest label and turned
    toward that vertex's smaller-labelled neighbour."""
    labels = g.labels
    order = _cycle_order(g.adj, _strip_to_cycles(g.adj, (1 << g.n) - 1)[0])
    k = min(range(len(order)), key=lambda i: labels[order[i]])
    order = order[k:] + order[:k]
    if labels[order[-1]] < labels[order[1]]:
        order = order[:1] + order[:0:-1]
    return tuple(labels[i] for i in order)


class PendantTree(NamedTuple):
    """One tree hanging off the cycle.

    root is the tree vertex adjacent to the cycle, anchor the cycle vertex it
    attaches to. vertices lives in the host graph; tree is the induced
    subgraph on them (labels preserved).
    """

    root: str
    anchor: str
    vertices: VertexSet
    tree: Graph


class Decomposition(NamedTuple):
    graph: Graph
    cycle: tuple[str, ...]
    cycle_set: VertexSet
    pendant_trees: tuple[PendantTree, ...]

    def outer_roots(self) -> VertexSet:
        """The off-cycle vertices adjacent to the cycle."""
        return self.graph.neighborhood(self.cycle_set) - self.cycle_set


def decompose(g: Graph) -> Decomposition:
    """The cycle and the pendant trees, ordered by root label. The pendant
    trees are the components of G - C, C the cycle: each one meets C through
    one edge, from its root to its anchor, since a second would close a
    second cycle."""
    _require_unicyclic(g)
    return _decompose(g, _walk_cycle(g))


def _decompose(g: Graph, cycle: tuple[str, ...]) -> Decomposition:
    """decompose of a connected unicyclic graph and its _walk_cycle."""
    cycle_set = g.set_of(cycle)
    cyc = cycle_set.mask
    roots = (g.neighborhood(cycle_set) - cycle_set).mask
    trees = []
    for comp, _ in _components_in(g.adj, (1 << g.n) - 1 & ~cyc):
        root = (comp & roots).bit_length() - 1
        anchor = (g.adj[root] & cyc).bit_length() - 1
        vertices = VertexSet(g, comp)
        trees.append(
            PendantTree(
                root=g.labels[root],
                anchor=g.labels[anchor],
                vertices=vertices,
                tree=g.induced_subgraph(vertices),
            )
        )
    trees.sort(key=lambda pt: pt.root)
    return Decomposition(
        graph=g, cycle=cycle, cycle_set=cycle_set, pendant_trees=tuple(trees)
    )


class KeClassification(NamedTuple):
    koenig_egervary: bool
    alpha_plus_mu: int
    all_cycle_edges_alpha_critical: bool
    non_critical_cycle_edges: tuple[tuple[str, str], ...]


def classify_ke_unicyclic(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> KeClassification:
    """alpha + mu for a connected unicyclic graph, together with the edge
    criterion: the sum is n - 1 exactly when every cycle edge is
    alpha-critical, and any non-critical cycle edge is reported as a witness."""
    _require_unicyclic(g)
    a = alpha(g, budgets)
    total = a + mu(g)
    bad = _non_critical_cycle_edges(g, _walk_cycle(g), a)
    return KeClassification(
        koenig_egervary=total == g.n,
        alpha_plus_mu=total,
        all_cycle_edges_alpha_critical=not bad,
        non_critical_cycle_edges=tuple(bad),
    )


def _non_critical_cycle_edges(
    g: Graph, cycle: tuple[str, ...], a: int
) -> list[tuple[str, str]]:
    """The edges of the cycle whose deletion leaves alpha(G) = a unchanged,
    each as a label-sorted pair, in sorted order.

    Deleting the cycle's edges leaves one tree T_c per cycle vertex c: c with
    the pendant trees hung on it. One tree DP of the pendant forest G - C,
    each tree rooted at its vertex next to the cycle, gives for every c
        take_c = 1 + alpha(T_c - N[c]) = 1 + sum of skip[r]
        skip_c = alpha(T_c - c) = sum of max(take[r], skip[r])
    over the roots r hung on c. G minus the cycle edge c_k c_{k+1} is a tree
    whose cycle vertices form the path c_{k+1}, ..., c_{L-1}, c_0, ..., c_k,
    so its alpha is a DP along that path over the pairs (take_c, skip_c):
    the best prefix c_0..c_k plus the best suffix c_{k+1}..c_{L-1}, over the
    states of c_0 and c_{L-1} that do not take both. One prefix and one
    suffix DP per end state give all of them in O(L). That is alpha(G - e)
    exactly, with no alpha query of G - e."""
    adj = g.adj
    idx = [g.index_of(c) for c in cycle]
    at = {c: k for k, c in enumerate(idx)}
    cyc = g.set_of(cycle).mask
    rest = (1 << g.n) - 1 & ~cyc
    _, order, parent, take, skip = _forest_dp(adj, rest, _union(adj, cyc) & rest)
    size = len(idx)
    took = [1] * size
    skipped = [0] * size
    for i, p in enumerate(parent):
        if p < 0:  # a pendant root, hung on its one cycle neighbour
            k = at[(adj[order[i]] & cyc).bit_length() - 1]
            t, s = take[i], skip[i]
            took[k] += s
            skipped[k] += t if t > s else s
    weights = list(zip(took, skipped))
    # pre[x][k]: the best of c_0..c_k with c_0 taken (x = 0) or skipped;
    # suf[y][k]: the best of c_k..c_{L-1} with c_{L-1} taken (y = 0) or skipped
    pre = _path_prefixes(weights)
    suf = [row[::-1] for row in _path_prefixes(weights[::-1])]
    bad = []
    for k in range(size):
        # c_0 taken, then skipped; but for c_{L-1} c_0, removing a cycle
        # edge joins the prefix to a suffix whose c_{L-1} may be taken
        # only with c_0 skipped
        took_first, skipped_first = pre[0][k], pre[1][k]
        if k < size - 1:
            t, s = suf[0][k + 1], suf[1][k + 1]
            took_first += s
            skipped_first += t if t > s else s
        if (took_first if took_first > skipped_first else skipped_first) != a + 1:
            bad.append((idx[k], idx[(k + 1) % size]))
    return _label_pairs(g.labels, bad)


def _path_prefixes(weights: list[tuple[int, int]]) -> list[list[int]]:
    """For a path of vertices with (take, skip) weights, in order: for each
    state of the first vertex, taken then skipped, the largest total of
    every prefix of the path with its last vertex free."""
    rows = []
    first_take, first_skip = weights[0]
    for took, skipped in ((first_take, float("-inf")), (float("-inf"), first_skip)):
        best = took if took > skipped else skipped
        row = [best]
        for t, s in weights[1:]:
            took, skipped = skipped + t, best + s
            best = took if took > skipped else skipped
            row.append(best)
        rows.append(row)
    return rows


def _require_non_ke(g: Graph, budgets: Budgets) -> Decomposition:
    dec = decompose(g)
    if is_koenig_egervary(g, budgets):
        raise PreconditionError(
            "structural core/corona/ker need alpha + mu = n - 1; "
            "this graph is Koenig-Egervary"
        )
    return dec


def _lift(pt: PendantTree) -> list[int]:
    """The host graph's bit of each vertex of the pendant tree, by tree
    index: the tree keeps the host's index order, so its vertex i is the
    i-th vertex of pt.vertices, and _union(lift, w) is w in the host."""
    return [1 << v for v in _bits(pt.vertices.mask)]


def _pendant_union(dec: Decomposition, part: Callable[[Graph], VertexSet]) -> VertexSet:
    """The union over the pendant trees of part(tree), a vertex set of the
    tree, as a vertex set of the host graph."""
    mask = 0
    for pt in dec.pendant_trees:
        mask |= _union(_lift(pt), part(pt.tree).mask)
    return VertexSet(dec.graph, mask)


def structural_core(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """core(G) assembled as the union of the pendant-tree cores."""
    return _pendant_union(_require_non_ke(g, budgets), lambda t: core(t, budgets))


def structural_corona(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """corona(G) assembled as the cycle plus the pendant-tree coronas."""
    dec = _require_non_ke(g, budgets)
    return dec.cycle_set | _pendant_union(dec, lambda t: corona(t, budgets))


def structural_ker(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """ker(G) assembled as the union of the pendant-tree kernels (each
    pendant tree is bipartite, so its kernel is its core)."""
    return _pendant_union(_require_non_ke(g, budgets), ker)
