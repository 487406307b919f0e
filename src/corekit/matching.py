"""Maximum matchings, the Koenig-Egervary test, and saturating matchings.

maximum_matching is Edmonds' blossom algorithm (Edmonds, "Paths, trees, and
flowers", Canad. J. Math. 1965) on the whole vertex set, exact on every
graph and polynomial, with no size budget. A graph is Koenig-Egervary when
alpha + mu = n; every bipartite graph is, and checking that is one of the
test gates.

The augmenting-path matcher is graph._match, the package's only bipartite
one. saturating_matching runs it on a source set and a disjoint target set
(Hall's condition holds iff every source is matched). critical.py runs it
on the bipartite double cover, where d_c = n - mu(cover) (Zhang 1990) and
ker is the set of vertices whose left copy some maximum matching misses
(Levit and Mandrescu 2012). _maximum_matching_pairs, budgeted by enum_n
and matching_limit, lists every maximum matching as index pairs: they are
the maximum independent sets of the line graph (_line_graph, the one
builder of it), listed by the exhaustive search behind enumerate_mis
(independence._mis_masks). enumerate_maximum_matchings turns them into
sorted Matching objects. The TH1 checker decides on the same line graph
by exhaustive alpha alone and lists the matchings only to count them in a
report or to name a counterexample; it tests them directly, through
_matched_vertices, the one statement of the matching predicate that the
constructor enforces.
"""

from __future__ import annotations

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError, DomainError
from .graph import Graph, VertexSet, _bits, _label_pairs, _match
from .independence import _mis_masks, alpha

__all__ = [
    "Matching",
    "maximum_matching",
    "mu",
    "is_koenig_egervary",
    "saturating_matching",
    "is_mu_critical_edge",
    "enumerate_maximum_matchings",
]


def _matched_vertices(graph: Graph, pairs) -> int:
    """The mask of the vertices that the index pairs cover, once they pass
    the defining predicate of a matching of the graph: every pair is an
    edge and no vertex repeats. Raises DomainError otherwise."""
    used = 0
    for i, j in pairs:
        if not graph.adj[i] >> j & 1:
            raise DomainError(
                f"pair ({graph.labels[i]!r}, {graph.labels[j]!r}) is not an edge"
            )
        bits = 1 << i | 1 << j
        if used & bits:
            raise DomainError("matching reuses a vertex")
        used |= bits
    return used


class Matching:
    """An immutable set of pairwise disjoint edges of one graph.

    Construction re-verifies the defining predicate: every pair must be an
    edge of the owner and no vertex may repeat.
    """

    __slots__ = ("graph", "pairs")

    def __init__(self, graph: Graph, pairs):
        pairs = list(pairs)
        _matched_vertices(graph, pairs)
        self.graph = graph
        self.pairs = tuple(sorted((i, j) if i < j else (j, i) for i, j in pairs))

    @classmethod
    def from_labels(cls, graph: Graph, pairs) -> "Matching":
        """Build from label pairs instead of index pairs."""
        return cls(graph, [(graph.index_of(a), graph.index_of(b)) for a, b in pairs])

    def __len__(self) -> int:
        return len(self.pairs)

    def vertices(self) -> VertexSet:
        return VertexSet(self.graph, _matched_vertices(self.graph, self.pairs))

    def edge_labels(self) -> list[tuple[str, str]]:
        return _label_pairs(self.graph.labels, self.pairs)

    def matched_to(self, label: str) -> str | None:
        v = self.graph.index_of(label)
        for i, j in self.pairs:
            if i == v:
                return self.graph.labels[j]
            if j == v:
                return self.graph.labels[i]
        return None

    def __repr__(self) -> str:
        return "{" + ", ".join(f"{a}{b}" if len(a) == len(b) == 1 else f"{a}-{b}"
                               for a, b in self.edge_labels()) + "}"


# -- matchers ------------------------------------------------------------------


def _blossom_matching(adj: tuple[int, ...], active: int) -> list[tuple[int, int]]:
    """Maximum matching of the subgraph induced on the active mask, connected
    or not, by Edmonds' blossom algorithm (1965), started from a greedy
    matching.

    From each vertex the matching leaves free, an alternating tree is grown
    breadth-first. An edge from an outer vertex to a free vertex outside the
    tree ends an augmenting path, which is flipped. An edge joining two
    outer vertices of different blossoms closes an odd cycle; it is
    contracted by pointing each of its vertices at the cycle's base, and its
    inner vertices become outer. A free vertex with no augmenting path has
    none after later augmentations either, so one search per free vertex
    suffices, and none is needed once the matching is perfect or near
    perfect. No recursion."""
    mate = [-1] * len(adj)
    size = 0
    unmatched = active
    for v in _bits(active):
        nb = adj[v] & unmatched
        if unmatched >> v & 1 and nb:
            u = (nb & -nb).bit_length() - 1
            mate[v], mate[u] = u, v
            unmatched &= ~(1 << v | 1 << u)
            size += 1
    cap = active.bit_count() // 2
    parent = [-1] * len(adj)
    base = list(range(len(adj)))
    for root in _bits(unmatched):
        if size == cap:
            break
        if mate[root] >= 0:
            continue
        tree = [root]  # every vertex whose parent or base this search sets
        outer = 1 << root
        queue = [root]
        end = -1
        for v in queue:
            for u in _bits(adj[v] & active):
                if base[v] == base[u] or mate[v] == u:
                    continue
                if outer >> u & 1:
                    # lowest common base of v and u in the tree
                    seen = 0
                    a = v
                    while True:
                        a = base[a]
                        seen |= 1 << a
                        if a == root:
                            break
                        a = parent[mate[a]]
                    b = u
                    while not seen >> base[b] & 1:
                        b = parent[mate[base[b]]]
                    b = base[b]
                    # walk both sides of the cycle down to b, marking the bases
                    # it passes and re-pointing parents for later flips
                    cycle = 0
                    for x, child in ((v, u), (u, v)):
                        while base[x] != b:
                            cycle |= 1 << base[x] | 1 << base[mate[x]]
                            parent[x] = child
                            child = mate[x]
                            x = parent[child]
                    for w in tree:
                        if cycle >> base[w] & 1:
                            base[w] = b
                            if not outer >> w & 1:
                                outer |= 1 << w
                                queue.append(w)
                elif parent[u] < 0:  # u is not in the tree yet
                    parent[u] = v
                    tree.append(u)
                    if mate[u] < 0:
                        end = u
                        break
                    w = mate[u]
                    outer |= 1 << w
                    tree.append(w)
                    queue.append(w)
            if end >= 0:
                break
        if end >= 0:
            size += 1
            while end >= 0:  # flip the path back to the root
                p = parent[end]
                nxt = mate[p]
                mate[end], mate[p] = p, end
                end = nxt
        for w in tree:
            parent[w] = -1
            base[w] = w
    return [(v, mate[v]) for v in _bits(active) if v < mate[v]]


# -- public operations ---------------------------------------------------------


def maximum_matching(g: Graph) -> Matching:
    """One maximum matching, deterministically chosen. No size budget."""
    return Matching(g, _blossom_matching(g.adj, (1 << g.n) - 1))


def mu(g: Graph) -> int:
    return len(maximum_matching(g))


def is_koenig_egervary(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """alpha(G) + mu(G) = n. Always true for bipartite graphs (a test gate,
    not an assumption of this function)."""
    return alpha(g, budgets) + mu(g) == g.n


def saturating_matching(g: Graph, sources: VertexSet, targets: VertexSet) -> Matching | None:
    """A matching inside the source/target bipartite slice saturating every
    source vertex, or None if no such matching exists (Hall failure).
    Sources and targets must be disjoint."""
    g._own(sources)
    g._own(targets)
    if sources.mask & targets.mask:
        raise DomainError("source and target sets overlap")
    mate = _match(g.adj, sources.mask, targets.mask)
    if len(mate) < len(sources):
        return None
    return Matching(g, [(v, u) for u, v in mate.items()])


def is_mu_critical_edge(g: Graph, u: str, v: str) -> bool:
    """True iff deleting the edge lowers mu, i.e. the edge lies in every
    maximum matching."""
    return mu(g.delete_edge(u, v)) < mu(g)


def _check_matching_n(n: int, budgets: Budgets) -> None:
    """Refuse to list the maximum matchings of a graph on n > enum_n
    vertices."""
    if n > budgets.enum_n:
        raise BudgetExceededError(
            f"matching enumeration limited to {budgets.enum_n} vertices, got {n}"
        )


def _line_graph(g: Graph) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """The edges of g as index pairs, in g.edges() order, and the adjacency
    of its line graph, whose vertex e is edge e: two edges are adjacent when
    they share an end. Its maximum independent sets are the maximum
    matchings of g, and its alpha is mu(g)."""
    edges = list(g.edges())
    at = [0] * g.n  # at[v]: the mask of the edges at v
    for e, (i, j) in enumerate(edges):
        at[i] |= 1 << e
        at[j] |= 1 << e
    # the edges at i or j but e, the one edge at both
    return edges, tuple([at[i] ^ at[j] for i, j in edges])


def _maximum_matching_pairs(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> list[tuple[tuple[int, int], ...]]:
    """Every maximum matching as a tuple of index pairs, unvalidated and in
    search order. Raises when g has more than enum_n vertices or the family
    more than matching_limit members.

    They are the maximum independent sets of the line graph, as _mis_masks
    lists them."""
    _check_matching_n(g.n, budgets)
    edges, line = _line_graph(g)
    masks = _mis_masks(line, (1 << len(edges)) - 1, budgets.matching_limit)
    if len(masks) > budgets.matching_limit:
        raise BudgetExceededError(f"more than {budgets.matching_limit} maximum matchings")
    return [tuple(edges[e] for e in _bits(mask)) for mask in masks]


def enumerate_maximum_matchings(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[Matching, ...]:
    """Every maximum matching, sorted by edge-label lists. Raises when the
    family would exceed the configured matching_limit."""
    matchings = [Matching(g, pairs) for pairs in _maximum_matching_pairs(g, budgets)]
    matchings.sort(key=lambda m: m.edge_labels())
    return tuple(matchings)
