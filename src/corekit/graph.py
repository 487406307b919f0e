"""Immutable simple graphs with label-based vertex sets.

Vertices are whitespace-free string labels mapped to dense indices in order of
first appearance. Adjacency is kept as per-vertex bitmasks, which is what the
exponential routines in the rest of the package operate on. All graph values
and VertexSet values are immutable; derived graphs (induced subgraphs,
deletions) are new objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, OwnershipError, ParseError

__all__ = [
    "Graph",
    "VertexSet",
    "ShapeClass",
    "classify_shape",
    "parse_edge_list",
    "serialize",
]

# A label containing whitespace or '#' cannot survive the text format, and a
# vertex literally named 'node' would collide with the isolated-vertex keyword.
_FORBIDDEN_LABEL = "node"


def _check_label(label: str) -> str:
    # label.split() == [label] exactly when label is non-empty and has no
    # whitespace, tested in C rather than per character
    if label.split() != [label]:
        raise DomainError(f"invalid vertex label {label!r}: labels are non-empty whitespace-free tokens")
    if "#" in label:
        raise DomainError(f"invalid vertex label {label!r}: '#' starts a comment in the edge-list format")
    if label == _FORBIDDEN_LABEL:
        raise DomainError(f"invalid vertex label {label!r}: reserved keyword in the edge-list format")
    return label


# -- mask-level helpers (shared by every algorithm module) --------------------
#
# _bits and _union walk the set bits of any mask. Every other helper takes the
# adjacency bitmask tuple and an `active` vertex mask and works on the
# subgraph induced on it. None of them recurses. The component walk also gives
# each component's colour classes, so no caller walks a component to colour it.
#
# A loop over every set bit of a mask is _bits or _union, except four hot
# loops that stay inline: _edge_count and _strip_to_cycles here, and
# _forest_dp's neighbour loop and _bb_set's scan in independence.py. There a
# generator step costs more than the loop body: a _bits walk took 1.4x the
# inline loop per mask (1388 against 972 ns on masks of 5.4 bits, Python 3.11
# on a 2-vCPU host), where _union matches it. A loop that takes only the
# lowest bit (x & -x) is a pick, not a walk. tests/test_graph.py pins this
# list.


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _union(rows: Sequence[int], mask: int) -> int:
    """The OR of rows[v] over the set bits v of the mask: N(S) when rows is
    the adjacency tuple and the mask is S."""
    out = 0
    while mask:
        b = mask & -mask
        out |= rows[b.bit_length() - 1]
        mask ^= b
    return out


def _components_in(adj: tuple[int, ...], active: int) -> list[tuple[int, int | None]]:
    """(comp, left) for each component of the subgraph induced on the active
    mask, by smallest vertex index. Breadth-first layers from the lowest
    vertex alternate colours, and left is the colour-0 class; None if an
    edge joins two vertices of one layer (an odd cycle)."""
    out = []
    rest = active
    while rest:
        comp = frontier = rest & -rest
        left = 0
        even = True
        while frontier:
            nxt = _union(adj, frontier)
            if nxt & frontier:
                left = None
            elif even and left is not None:
                left |= frontier
            even = not even
            frontier = nxt & active & ~comp
            comp |= frontier
        out.append((comp, left))
        rest &= ~comp
    return out


def _edge_count(adj: tuple[int, ...], active: int) -> int:
    total = 0
    rest = active
    while rest:  # inline, not _bits (1.4x per bit): once per component of each alpha query
        b = rest & -rest
        total += (adj[b.bit_length() - 1] & active).bit_count()
        rest ^= b
    return total // 2


def _strip_to_cycles(adj: Sequence[int], active: int) -> tuple[int, int]:
    """(survivors, last): repeatedly drop active vertices with at most one
    active neighbour, in layers. On a unicyclic component the survivors are
    exactly the cycle. On a tree none survive, and last, the last non-empty
    layer dropped, is its centre or its two centres.

    Each round drops every vertex it checks that has at most one active
    neighbour, and the next round checks only their surviving neighbours,
    the only vertices whose degree fell. A vertex is checked once at the
    start and then once per dropped neighbour, so no round rescans the
    survivors."""
    check = active
    last = 0
    while check:
        drop = 0
        rest = check
        while rest:  # inline, not _bits (1.4x per bit): every vertex of each cycle split
            b = rest & -rest
            rest ^= b
            if (adj[b.bit_length() - 1] & active).bit_count() <= 1:
                drop |= b
        if not drop:
            break
        active ^= drop
        last = drop
        check = _union(adj, drop) & active
    return active, last


def _label_pairs(
    labels: Sequence[str], pairs: Iterable[tuple[int, int]]
) -> list[tuple[str, str]]:
    """The index pairs as label pairs, each sorted, in sorted order."""
    out = []
    for i, j in pairs:
        a, b = labels[i], labels[j]
        out.append((a, b) if a <= b else (b, a))
    out.sort()
    return out


def _cycle_order(adj: tuple[int, ...], cyc: int) -> list[int]:
    """The vertices of a bare cycle (a mask whose induced subgraph is one
    cycle) in walking order: from the lowest index toward its lower
    neighbour."""
    start = (cyc & -cyc).bit_length() - 1
    nb = adj[start] & cyc
    order = [start, (nb & -nb).bit_length() - 1]
    while True:
        prev, cur = order[-2], order[-1]
        step = adj[cur] & cyc & ~(1 << prev)
        nxt = (step & -step).bit_length() - 1
        if nxt == start:
            return order
        order.append(nxt)


def _match(adj: tuple[int, ...], sources: int, targets: int) -> dict[int, int]:
    """Maximum matching of the bipartite graph with the source mask on the
    left, the target mask on the right and an edge s-t for every target t in
    adj[s]. Returns {target: source}.

    The two sides are separate copies even when the masks overlap, so
    sources = targets = all vertices matches the bipartite double cover
    (v on the left joined to w' on the right for every edge vw) without
    building it. Augmenting paths are grown depth-first with an explicit
    stack: sources in increasing index order, neighbours lowest bit first,
    one visited-target mask per source."""
    mate: dict[int, int] = {}
    for s in _bits(sources):
        seen = 0
        path = [s]  # left vertices of the alternating path being grown
        via: list[int] = []  # via[i] is the matched target leading to path[i + 1]
        scans = [adj[s] & targets]  # unvisited candidates for each path vertex
        while scans:
            nb = scans[-1] & ~seen
            if not nb:
                scans.pop()
                path.pop()
                if via:
                    via.pop()
                continue
            b = nb & -nb
            seen |= b
            t = b.bit_length() - 1
            owner = mate.get(t)
            if owner is None:
                mate[t] = path[-1]
                for i, u in enumerate(via):
                    mate[u] = path[i]
                break
            via.append(t)
            path.append(owner)
            scans.append(adj[owner] & targets)
    return mate


def _even_reach(adj: tuple[int, ...], mate: dict[int, int], free: int, active: int) -> int:
    """The vertices reached from the free mask by even alternating paths of a
    maximum bipartite matching: step from a reached vertex to any neighbour
    in the active mask, then along that neighbour's matching edge to
    mate[neighbour]. Every neighbour a step meets is covered, or the matching
    had an augmenting path. Steps and reached vertices are kept in separate
    masks, so the two sides may share indices (the double cover)."""
    reached = frontier = free
    stepped = 0
    while frontier:
        odd = _union(adj, frontier) & active & ~stepped
        stepped |= odd
        nxt = 0
        for w in _bits(odd):
            nxt |= 1 << mate[w]
        frontier = nxt & ~reached
        reached |= frontier
    return reached


class _Builder:
    """The one place labelled input becomes a graph: labels are interned in
    order of first appearance, and an invalid label, a self-loop or a
    duplicate edge raises DomainError."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}  # label -> index, in index order
        self.adj: list[int] = []
        self.m = 0

    def vertex(self, lab: str) -> int:
        i = self.index.get(lab)
        if i is None:
            _check_label(lab)
            i = self.index[lab] = len(self.adj)
            self.adj.append(0)
        return i

    def edge(self, u: str, v: str) -> None:
        iu, iv = self.vertex(u), self.vertex(v)
        if iu == iv:
            raise DomainError(f"self-loop at vertex {u!r}")
        if self.adj[iu] >> iv & 1:
            raise DomainError(f"duplicate edge {u!r} {v!r}")
        self.adj[iu] |= 1 << iv
        self.adj[iv] |= 1 << iu
        self.m += 1


class Graph:
    """An immutable simple undirected graph.

    Construct via from_edges() or parse_edge_list(); direct construction is
    internal. Equality is object identity: vertex sets are owned by one graph
    value and refuse to mix with sets of any other, even a structural copy.
    """

    __slots__ = ("labels", "adj", "m", "_index")

    def __init__(self, labels: tuple[str, ...], adj: tuple[int, ...], m: int):
        self.labels = labels
        self.adj = adj  # adj[i] = bitmask of neighbours of vertex i
        self.m = m
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]] = (),
        isolated: Iterable[str] = (),
    ) -> "Graph":
        """Build a graph from label pairs plus explicitly isolated vertices.

        Indices are assigned by first appearance (isolated list first, then
        edge endpoints left to right). Self-loops and duplicate edges are
        rejected, as are repeated isolated declarations.
        """
        b = _Builder()
        for lab in isolated:
            if lab in b.index:
                raise DomainError(f"vertex {lab!r} declared isolated more than once")
            b.vertex(lab)
        for u, v in edges:
            b.edge(u, v)
        return cls(tuple(b.index), tuple(b.adj), b.m)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"no vertex labelled {label!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adj[self.index_of(u)] >> self.index_of(v) & 1)

    def degree(self, label: str) -> int:
        return self.adj[self.index_of(label)].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, j) with i < j, in index order."""
        for i in range(self.n):
            for j in _bits(self.adj[i] >> (i + 1) << (i + 1)):
                yield i, j

    def edge_labels(self) -> list[tuple[str, str]]:
        """All edges as sorted label pairs, list sorted lexicographically."""
        return _label_pairs(self.labels, self.edges())

    # -- vertex sets --------------------------------------------------------

    def set_of(self, labels: Iterable[str]) -> "VertexSet":
        mask = 0
        for lab in labels:
            mask |= 1 << self.index_of(lab)
        return VertexSet(self, mask)

    def vertex(self, label: str) -> "VertexSet":
        return VertexSet(self, 1 << self.index_of(label))

    def empty_set(self) -> "VertexSet":
        return VertexSet(self, 0)

    def full_set(self) -> "VertexSet":
        return VertexSet(self, (1 << self.n) - 1)

    def set_from_mask(self, mask: int) -> "VertexSet":
        if mask >> self.n:
            raise DomainError("mask has bits outside the vertex range")
        return VertexSet(self, mask)

    # -- structure ----------------------------------------------------------

    def neighborhood(self, vs: "VertexSet", closed: bool = False) -> "VertexSet":
        """N(A), or N[A] when closed. A may contain adjacent vertices, in
        which case N(A) intersects A."""
        self._own(vs)
        out = _union(self.adj, vs.mask)
        if closed:
            out |= vs.mask
        return VertexSet(self, out)

    def induced_subgraph(self, vs: "VertexSet") -> "Graph":
        """The subgraph induced on vs; labels kept, index order preserved."""
        self._own(vs)
        keep = list(_bits(vs.mask))
        labels = tuple(self.labels[i] for i in keep)
        pos = {old: new for new, old in enumerate(keep)}
        adj = []
        m = 0
        for old in keep:
            row = 0
            for j in _bits(self.adj[old] & vs.mask):
                row |= 1 << pos[j]
            adj.append(row)
            m += row.bit_count()
        return Graph(labels, tuple(adj), m // 2)

    def delete_vertices(self, vs: "VertexSet") -> "Graph":
        self._own(vs)
        return self.induced_subgraph(VertexSet(self, ((1 << self.n) - 1) & ~vs.mask))

    def delete_edge(self, u: str, v: str) -> "Graph":
        iu, iv = self.index_of(u), self.index_of(v)
        if not self.adj[iu] >> iv & 1:
            raise DomainError(f"no edge {u!r} {v!r} to delete")
        adj = list(self.adj)
        adj[iu] &= ~(1 << iv)
        adj[iv] &= ~(1 << iu)
        return Graph(self.labels, tuple(adj), self.m - 1)

    def components(self) -> list[int]:
        """Vertex masks of connected components, ordered by smallest index."""
        return [comp for comp, _ in _components_in(self.adj, (1 << self.n) - 1)]

    def _own(self, vs: "VertexSet") -> None:
        if vs.graph is not self:
            raise OwnershipError("vertex set belongs to a different graph")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class VertexSet:
    """An immutable subset of one graph's vertices.

    Set algebra is only defined between sets of the same graph object;
    anything else raises OwnershipError rather than silently reusing indices.
    """

    __slots__ = ("graph", "mask")

    def __init__(self, graph: Graph, mask: int):
        self.graph = graph
        self.mask = mask

    def _peer(self, other: "VertexSet") -> int:
        if not isinstance(other, VertexSet):
            raise TypeError(f"expected VertexSet, got {type(other).__name__}")
        if other.graph is not self.graph:
            raise OwnershipError("vertex sets belong to different graphs")
        return other.mask

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.graph, self.mask | self._peer(other))

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.graph, self.mask & self._peer(other))

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.graph, self.mask & ~self._peer(other))

    def complement(self) -> "VertexSet":
        return VertexSet(self.graph, ((1 << self.graph.n) - 1) & ~self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == self._peer(other)

    def __le__(self, other: "VertexSet") -> bool:
        return self.mask & ~self._peer(other) == 0

    def __hash__(self) -> int:
        return hash((id(self.graph), self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.graph.index_of(label) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def labels(self) -> tuple[str, ...]:
        """Member labels, sorted; this is the canonical rendering order."""
        return tuple(sorted(self.graph.labels[i] for i in _bits(self.mask)))

    def __repr__(self) -> str:
        return "{" + ", ".join(self.labels()) + "}"


class ShapeClass(NamedTuple):
    """Structural classification used for algorithm dispatch.

    kind is one of 'tree', 'forest', 'unicyclic', 'other'; tree and forest are
    mutually exclusive (a tree is connected). The 0-vertex graph classifies as
    a connected bipartite forest by convention.
    """

    connected: bool
    kind: str
    bipartite: bool


def classify_shape(g: Graph) -> ShapeClass:
    comps = _components_in(g.adj, (1 << g.n) - 1)
    connected = len(comps) <= 1
    acyclic = g.m == g.n - len(comps)
    if g.n == 0:
        kind = "forest"
    elif acyclic:
        kind = "tree" if connected else "forest"
    elif connected and g.m == g.n:
        kind = "unicyclic"
    else:
        kind = "other"
    bipartite = all(left is not None for _, left in comps)
    return ShapeClass(connected=connected, kind=kind, bipartite=bipartite)


# -- text format ------------------------------------------------------------
#
# One item per line. '#' starts a comment running to end of line; blank lines
# are ignored. 'u v' declares an edge, 'node w' declares an isolated vertex.
# Parsing is strict: self-loops, repeated edges, repeated declarations,
# malformed lines and a resulting empty graph are all hard errors carrying the
# offending line number.


def parse_edge_list(text: str) -> Graph:
    b = _Builder()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected two tokens, got {len(tokens)}: {line!r}")
        u, v = tokens
        try:
            if u != "node":
                b.edge(u, v)
            elif v in b.index:
                raise ParseError(lineno, f"vertex {v!r} already declared")
            else:
                b.vertex(v)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
    if not b.index:
        raise ParseError(max(lineno, 1), "empty graph: no vertices declared")
    return Graph(tuple(b.index), tuple(b.adj), b.m)


def serialize(g: Graph) -> str:
    """Canonical text form: isolated vertices first (sorted), then edges
    sorted by label pair. parse_edge_list(serialize(g)) reproduces g up to
    index order."""
    lines = [f"node {lab}" for lab in sorted(g.labels) if g.degree(lab) == 0]
    lines += [f"{u} {v}" for u, v in g.edge_labels()]
    return "\n".join(lines) + ("\n" if lines else "")
