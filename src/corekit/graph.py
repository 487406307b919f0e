"""Immutable simple graphs with label-based vertex sets.

Vertices are whitespace-free string labels mapped to dense indices in order of
first appearance. Adjacency is kept as per-vertex bitmasks, which is what the
exponential routines in the rest of the package operate on. All graph values
and VertexSet values are immutable; derived graphs (induced subgraphs,
deletions) are new objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, OwnershipError, ParseError

__all__ = [
    "Graph",
    "VertexSet",
    "ShapeClass",
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
# All of these take the adjacency bitmask tuple and an `active` vertex mask and
# work on the subgraph induced on it. None of them recurses.


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _components_in(adj: tuple[int, ...], active: int) -> list[int]:
    """Connected components of the subgraph induced on the active mask,
    ordered by smallest vertex index."""
    out = []
    rest = active
    while rest:
        low = rest & -rest
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            scan = frontier
            while scan:
                b = scan & -scan
                nxt |= adj[b.bit_length() - 1]
                scan ^= b
            frontier = nxt & active & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def _edge_count(adj: tuple[int, ...], active: int) -> int:
    total = 0
    rest = active
    while rest:
        b = rest & -rest
        total += (adj[b.bit_length() - 1] & active).bit_count()
        rest ^= b
    return total // 2


def _strip_to_cycles(adj: tuple[int, ...], active: int) -> int:
    """Repeatedly drop active vertices with at most one active neighbour.
    On a unicyclic component the survivors are exactly the cycle."""
    changed = True
    while changed:
        changed = False
        rest = active
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            if (adj[v] & active).bit_count() <= 1:
                active ^= b
                changed = True
    return active


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


def _two_coloring(adj: tuple[int, ...], active: int) -> int | None:
    """The colour-0 class of a proper 2-colouring of the subgraph induced on
    the active mask, the lowest vertex of each component coloured 0; None if
    the subgraph has an odd cycle. Breadth-first layers alternate colours, so
    the colouring is proper iff no edge joins two vertices of one layer."""
    left = 0
    rest = active
    while rest:
        comp = frontier = rest & -rest
        even = True
        while frontier:
            nxt = 0
            scan = frontier
            while scan:
                b = scan & -scan
                nxt |= adj[b.bit_length() - 1]
                scan ^= b
            if nxt & frontier:
                return None
            if even:
                left |= frontier
            even = not even
            frontier = nxt & active & ~comp
            comp |= frontier
        rest &= ~comp
    return left


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
        odd = 0
        for v in _bits(frontier):
            odd |= adj[v]
        odd &= active & ~stepped
        stepped |= odd
        nxt = 0
        for w in _bits(odd):
            nxt |= 1 << mate[w]
        frontier = nxt & ~reached
        reached |= frontier
    return reached


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
        labels: list[str] = []
        index: dict[str, int] = {}

        def intern(lab: str) -> int:
            i = index.get(lab)
            if i is None:
                _check_label(lab)
                i = len(labels)
                index[lab] = i
                labels.append(lab)
            return i

        for lab in isolated:
            if lab in index:
                raise DomainError(f"vertex {lab!r} declared isolated more than once")
            intern(lab)
        adj: list[int] = [0] * len(labels)
        m = 0
        for u, v in edges:
            iu, iv = intern(u), intern(v)
            while len(adj) < len(labels):
                adj.append(0)
            if iu == iv:
                raise DomainError(f"self-loop at vertex {u!r}")
            if adj[iu] >> iv & 1:
                raise DomainError(f"duplicate edge {u!r} {v!r}")
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
            m += 1
        return cls(tuple(labels), tuple(adj), m)

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
            rest = self.adj[i] >> (i + 1) << (i + 1)
            while rest:
                b = rest & -rest
                yield i, b.bit_length() - 1
                rest ^= b

    def edge_labels(self) -> list[tuple[str, str]]:
        """All edges as sorted label pairs, list sorted lexicographically."""
        out = []
        for i, j in self.edges():
            a, b = self.labels[i], self.labels[j]
            out.append((a, b) if a <= b else (b, a))
        out.sort()
        return out

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
        out = 0
        rest = vs.mask
        while rest:
            b = rest & -rest
            out |= self.adj[b.bit_length() - 1]
            rest ^= b
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
            rest = self.adj[old] & vs.mask
            while rest:
                b = rest & -rest
                row |= 1 << pos[b.bit_length() - 1]
                rest ^= b
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
        return _components_in(self.adj, (1 << self.n) - 1)

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

    def indices(self) -> tuple[int, ...]:
        out = []
        rest = self.mask
        while rest:
            b = rest & -rest
            out.append(b.bit_length() - 1)
            rest ^= b
        return tuple(out)

    def labels(self) -> tuple[str, ...]:
        """Member labels, sorted; this is the canonical rendering order."""
        return tuple(sorted(self.graph.labels[i] for i in self.indices()))

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
    comps = g.components()
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
    bipartite = _two_coloring(g.adj, (1 << g.n) - 1) is not None
    return ShapeClass(connected=connected, kind=kind, bipartite=bipartite)


# -- text format ------------------------------------------------------------
#
# One item per line. '#' starts a comment running to end of line; blank lines
# are ignored. 'u v' declares an edge, 'node w' declares an isolated vertex.
# Parsing is strict: self-loops, repeated edges, repeated declarations,
# malformed lines and a resulting empty graph are all hard errors carrying the
# offending line number.


def parse_edge_list(text: str) -> Graph:
    labels: list[str] = []
    index: dict[str, int] = {}
    adj: list[int] = []
    m = 0
    lineno = 0

    def intern(lab: str) -> int:
        i = index.get(lab)
        if i is None:
            try:
                _check_label(lab)
            except DomainError as exc:
                raise ParseError(lineno, str(exc)) from None
            i = len(labels)
            index[lab] = i
            labels.append(lab)
            adj.append(0)
        return i

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected two tokens, got {len(tokens)}: {line!r}")
        a, b = tokens
        if a == "node":
            if b in index:
                raise ParseError(lineno, f"vertex {b!r} already declared")
            intern(b)
            continue
        iu, iv = intern(a), intern(b)
        if iu == iv:
            raise ParseError(lineno, f"self-loop at vertex {a!r}")
        if adj[iu] >> iv & 1:
            raise ParseError(lineno, f"duplicate edge {a!r} {b!r}")
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        m += 1

    if not labels:
        raise ParseError(max(lineno, 1), "empty graph: no vertices declared")
    return Graph(tuple(labels), tuple(adj), m)


def serialize(g: Graph) -> str:
    """Canonical text form: isolated vertices first (sorted), then edges
    sorted by label pair. parse_edge_list(serialize(g)) reproduces g up to
    index order."""
    lines = [f"node {lab}" for lab in sorted(g.labels) if g.degree(lab) == 0]
    lines += [f"{u} {v}" for u, v in g.edge_labels()]
    return "\n".join(lines) + ("\n" if lines else "")
