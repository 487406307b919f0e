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
"""

from __future__ import annotations

from typing import NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .critical import ker
from .errors import NotUnicyclicError, PreconditionError
from .graph import Graph, VertexSet, _components_in, _cycle_order, _strip_to_cycles
from .independence import _alpha_active, _edge_raises_alpha, core, corona
from .matching import mu

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
    """A graph has exactly one cycle and is connected iff it has one
    component and as many edges as vertices."""
    comps = g.components()
    if len(comps) != 1 or g.m != g.n:
        raise NotUnicyclicError(
            f"expected a connected graph with exactly one cycle, "
            f"got n={g.n}, m={g.m}, connected={len(comps) <= 1}"
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
    order = _cycle_order(g.adj, _strip_to_cycles(g.adj, (1 << g.n) - 1))
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
        mask = 0
        for pt in self.pendant_trees:
            mask |= 1 << self.graph.index_of(pt.root)
        return VertexSet(self.graph, mask)


def decompose(g: Graph) -> Decomposition:
    """The cycle and the pendant trees, ordered by root label. The pendant
    trees are the components of G - C, C the cycle: each one meets C through
    one edge, from its root to its anchor, since a second would close a
    second cycle."""
    _require_unicyclic(g)
    cycle = _walk_cycle(g)
    cycle_set = g.set_of(cycle)
    cyc = cycle_set.mask
    roots = (g.neighborhood(cycle_set) - cycle_set).mask
    trees = []
    for comp in _components_in(g.adj, (1 << g.n) - 1 & ~cyc):
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
    a = _alpha_active(g.adj, (1 << g.n) - 1, budgets)
    total = a + mu(g)
    bad = _non_critical_cycle_edges(g, _walk_cycle(g), a, budgets)
    return KeClassification(
        koenig_egervary=total == g.n,
        alpha_plus_mu=total,
        all_cycle_edges_alpha_critical=not bad,
        non_critical_cycle_edges=tuple(bad),
    )


def _non_critical_cycle_edges(
    g: Graph, cycle: tuple[str, ...], a: int, budgets: Budgets
) -> list[tuple[str, str]]:
    """The edges of the cycle whose deletion leaves alpha(G) = a unchanged,
    each as a label-sorted pair, in sorted order."""
    bad = []
    for k in range(len(cycle)):
        u, v = cycle[k], cycle[(k + 1) % len(cycle)]
        if not _edge_raises_alpha(g, u, v, a, budgets):
            bad.append((u, v) if u <= v else (v, u))
    bad.sort()
    return bad


def _require_non_ke(g: Graph, budgets: Budgets) -> Decomposition:
    _require_unicyclic(g)
    if _alpha_active(g.adj, (1 << g.n) - 1, budgets) + mu(g) == g.n:
        raise PreconditionError(
            "structural core/corona/ker need alpha + mu = n - 1; "
            "this graph is Koenig-Egervary"
        )
    return decompose(g)


def _pull(g: Graph, sub: VertexSet) -> int:
    """Mask, in g, of a vertex set living in an induced subgraph of g."""
    mask = 0
    for lab in sub.labels():
        mask |= 1 << g.index_of(lab)
    return mask


def structural_core(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """core(G) assembled as the union of the pendant-tree cores."""
    dec = _require_non_ke(g, budgets)
    mask = 0
    for pt in dec.pendant_trees:
        mask |= _pull(g, core(pt.tree, budgets))
    return VertexSet(g, mask)


def structural_corona(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """corona(G) assembled as the cycle plus the pendant-tree coronas."""
    dec = _require_non_ke(g, budgets)
    mask = dec.cycle_set.mask
    for pt in dec.pendant_trees:
        mask |= _pull(g, corona(pt.tree, budgets))
    return VertexSet(g, mask)


def structural_ker(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """ker(G) assembled as the union of the pendant-tree kernels (each
    pendant tree is bipartite, so its kernel is its core)."""
    dec = _require_non_ke(g, budgets)
    mask = 0
    for pt in dec.pendant_trees:
        mask |= _pull(g, ker(pt.tree))
    return VertexSet(g, mask)
