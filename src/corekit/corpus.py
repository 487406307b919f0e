"""Graph corpora: packaged fixtures, a parametric family, exhaustive
enumerators for trees / unicyclic graphs / small connected graphs, and
seeded random generators.

Enumeration up to isomorphism is direct, not dedupe-after-the-fact on labeled
streams: rooted trees come from the level-sequence successor algorithm and are
deduped by center-rooted canonical codes, computed on the int adjacency of
each level sequence, so a Graph is built only for a tree that is kept.
Unicyclic graphs are free trees plus one non-edge, deduped by a cycle-necklace
code: for each tree, in stream order, and each non-edge (i, j) in row-major
order, the code is read off the tree itself (the cycle is the tree path from i
to j, the pendant codes come from a per-tree memo of rooted codes per directed
edge), and the first candidate of each class is kept and only then built as a
Graph, from the tree's edges plus (i, j). Connected graphs on at most 7
vertices are grown one vertex at a time from the graphs one vertex smaller and
deduped by their least edge mask over the labellings with a non-increasing
degree vector. That mask is computed for all such labellings at once: for each
structure of equal-degree runs, a table built on first use in each level
packs the image of every position pair under every labelling into one int, 32
bits per labelling, so a candidate's masks are the OR of its edges' entries
and its canonical mask the least field. Every enumerator is gated in the tests
by published counts and, at small n, by cross-checks against labeled streams
or a reference sweep.

All randomness is drawn from string-seeded random.Random instances, so every
stream is reproducible from (n, seed) alone, independent of process history.
"""

from __future__ import annotations

import heapq
import os
import random
import sys
from array import array
from itertools import groupby, permutations, product
from typing import Iterator

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError, DomainError
from .graph import Graph, _bits, _cycle_order, _strip_to_cycles, parse_edge_list

__all__ = [
    "FIXTURE_NAMES",
    "fixture_text",
    "fixture",
    "kernel_gap_family",
    "prufer_decode",
    "enumerate_trees",
    "enumerate_unicyclic",
    "enumerate_connected_graphs",
    "tree_code",
    "unicyclic_code",
    "random_tree",
    "random_unicyclic",
    "random_connected",
    "family_items",
]

FIXTURE_NAMES = (
    "uni7-ke",
    "uni10-nonke",
    "tree5-pendant",
    "uni9-ke",
    "uni7-ke-kereq",
    "bicyclic10-nonke",
    "uni8-nonke",
    "bicyclic10-ke",
    "bicyclic9-nonke",
    "p2",
    "p3",
    "c4",
    "c5",
    "k1",
    "k3",
)


def fixture_text(name: str) -> str:
    """The packaged file, read through this module's loader, which serves
    files beside it from a directory or a zip archive alike."""
    if name not in FIXTURE_NAMES:
        raise DomainError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.txt")
    return __loader__.get_data(path).decode("utf-8")


def fixture(name: str) -> Graph:
    return parse_edge_list(fixture_text(name))


def kernel_gap_family(k: int) -> Graph:
    """The k-th member of a family of Koenig-Egervary unicyclic graphs whose
    core outgrows its kernel: a path x-y-z, an odd path v1..v_{2k+1} hanging
    below y, and a triangle closing the far end of that path through a new
    vertex w. ker stays {x, z} for every k while core also holds
    v1, v3, ..., v_{2k-1}."""
    if k < 1:
        raise DomainError(f"family index must be >= 1, got {k}")
    edges = [("x", "y"), ("y", "z"), ("y", "v1")]
    for i in range(1, 2 * k + 1):
        edges.append((f"v{i}", f"v{i + 1}"))
    edges.append((f"v{2 * k}", "w"))
    edges.append((f"v{2 * k + 1}", "w"))
    return Graph.from_edges(edges)


# -- labeled generation -------------------------------------------------------


def prufer_decode(seq: tuple[int, ...]) -> Graph:
    """The labeled tree on v1..v{len(seq)+2} with the given sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    leaf_heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for s in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((f"v{leaf + 1}", f"v{s + 1}"))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaf_heap, s)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((f"v{u + 1}", f"v{v + 1}"))
    return Graph.from_edges(edges)


# -- canonical codes ----------------------------------------------------------


def _rooted_code(adj: tuple[int, ...], root: int, parent: int) -> str:
    subs = []
    rest = adj[root] & ~(1 << parent if parent >= 0 else 0)
    while rest:
        b = rest & -rest
        subs.append(_rooted_code(adj, b.bit_length() - 1, root))
        rest ^= b
    subs.sort()
    return "(" + "".join(subs) + ")"


def _tree_centers(adj: tuple[int, ...], n: int) -> list[int]:
    if n == 1:
        return [0]
    degree = [adj[v].bit_count() for v in range(n)]
    alive = (1 << n) - 1
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive &= ~(1 << v)
            remaining -= 1
            rest = adj[v] & alive
            while rest:
                b = rest & -rest
                u = b.bit_length() - 1
                rest ^= b
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return [v for v in range(n) if alive >> v & 1]


def _tree_code(adj: tuple[int, ...] | list[int], n: int) -> str:
    return min(_rooted_code(adj, c, -1) for c in _tree_centers(adj, n))


def tree_code(g: Graph) -> str:
    """Canonical string; two trees get the same code iff they are isomorphic."""
    return _tree_code(g.adj, g.n)


def _necklace_code(codes: list[str]) -> str:
    """The cycle length and the least rotation or reflection of the pendant
    codes along the cycle, compared as sequences of codes."""
    ell = len(codes)
    turns = (codes * 2, codes[::-1] * 2)
    return f"{ell}:" + "".join(min(d[s : s + ell] for d in turns for s in range(ell)))


def unicyclic_code(g: Graph) -> str:
    """Canonical string for a connected unicyclic graph: cycle length plus the
    lexicographically smallest rotation/reflection of the sequence of
    pendant-tree codes along the cycle."""
    adj = g.adj
    cyc = _strip_to_cycles(adj, (1 << g.n) - 1)
    order = _cycle_order(adj, cyc)
    codes = []
    for v in order:
        sub = []
        rest = adj[v] & ~cyc
        while rest:
            b = rest & -rest
            sub.append(_rooted_code(adj, b.bit_length() - 1, v))
            rest ^= b
        sub.sort()
        codes.append("(" + "".join(sub) + ")")
    return _necklace_code(codes)


def _added_edge_codes(adj: tuple[int, ...], n: int) -> Iterator[tuple[int, int, str]]:
    """(i, j, code) for each non-edge i < j of the tree with adjacency adj, in
    row-major order, where code is unicyclic_code of the tree plus edge ij.

    The cycle is the tree path from i to j, found through parent pointers
    from vertex 0. The pendant trees at a cycle vertex are its branches off
    that path, and they are the same in the tree and in the unicyclic graph,
    so each branch's rooted code is computed once per tree (per directed
    edge) and each cycle vertex's pendant code once per pair of cycle
    neighbours."""
    parent = [-1] * n
    depth = [0] * n
    order = [0]
    for v in order:
        for u in _bits(adj[v] & ~(1 << parent[v] if v else 0)):
            parent[u] = v
            depth[u] = depth[v] + 1
            order.append(u)
    branch: dict[tuple[int, int], str] = {}

    def branch_code(u: int, p: int) -> str:
        code = branch.get((u, p))
        if code is None:
            subs = sorted(branch_code(w, u) for w in _bits(adj[u] & ~(1 << p)))
            code = branch[u, p] = "(" + "".join(subs) + ")"
        return code

    pendant: dict[tuple[int, int], str] = {}

    def pendant_code(v: int, on_cycle: int) -> str:
        code = pendant.get((v, on_cycle))
        if code is None:
            subs = sorted(branch_code(u, v) for u in _bits(adj[v] & ~on_cycle))
            code = pendant[v, on_cycle] = "(" + "".join(subs) + ")"
        return code

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1:
                continue
            a, b = i, j
            down: list[int] = []
            up: list[int] = []
            while a != b:
                if depth[a] >= depth[b]:
                    down.append(a)
                    a = parent[a]
                else:
                    up.append(b)
                    b = parent[b]
            cycle = down + [a] + up[::-1]
            mask = 0
            for v in cycle:
                mask |= 1 << v
            yield i, j, _necklace_code([pendant_code(v, adj[v] & mask) for v in cycle])


# -- enumeration up to isomorphism -------------------------------------------


def _level_sequences(n: int) -> Iterator[list[int]]:
    """Canonical level sequences of rooted trees on n vertices, root at
    level 1, generated by the standard successor rule."""
    seq = list(range(1, n + 1))
    while True:
        yield seq
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        nxt = seq[:p]
        block = seq[q:p]
        while len(nxt) < n:
            nxt.extend(block[: n - len(nxt)])
        seq = nxt


def _level_parents(seq: list[int]) -> list[int]:
    """The parent of each vertex of the rooted tree with level sequence seq,
    -1 for the root."""
    parent = [-1] * len(seq)
    parent_at = {seq[0]: 0}
    for i in range(1, len(seq)):
        parent[i] = parent_at[seq[i] - 1]
        parent_at[seq[i]] = i
    return parent


_CONNECTED_MAX_N = 7


def _check_enum_n(what: str, n: int, limit: int) -> None:
    """Refuse an exhaustive enumeration of graphs on n > limit vertices."""
    if n > limit:
        raise BudgetExceededError(f"{what} enumeration limited to n <= {limit}")


def enumerate_trees(n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Iterator[Graph]:
    """Trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise DomainError(f"trees need n >= 1, got {n}")
    _check_enum_n("tree", n, budgets.enum_n)
    if n == 1:
        yield Graph.from_edges(isolated=("v1",))
        return
    seen = set()
    for seq in _level_sequences(n):
        parent = _level_parents(seq)
        adj = [0] * n
        for v in range(1, n):
            adj[v] |= 1 << parent[v]
            adj[parent[v]] |= 1 << v
        code = _tree_code(adj, n)
        if code not in seen:
            seen.add(code)
            yield Graph.from_edges([(f"v{parent[v] + 1}", f"v{v + 1}") for v in range(1, n)])


def enumerate_unicyclic(n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Iterator[Graph]:
    """Connected unicyclic graphs on n vertices, one per isomorphism class."""
    if n < 3:
        raise DomainError(f"unicyclic graphs need n >= 3, got {n}")
    _check_enum_n("unicyclic", n, budgets.enum_n)
    seen = set()
    for t in enumerate_trees(n, budgets=budgets):
        tree_edges = t.edge_labels()
        for i, j, code in _added_edge_codes(t.adj, n):
            if code not in seen:
                seen.add(code)
                yield Graph.from_edges(tree_edges + [(t.labels[i], t.labels[j])])


def _labelling_table(runs: tuple[int, ...], bit: list[list[int]]) -> tuple[int, list[list[int]]]:
    """The labellings of k = sum(runs) positions that permute each run of
    positions within itself, in product(permutations(run)) order, packed
    into one int per position pair: field p of table[a][b] (32 bits wide)
    is bit[pos_p[a]][pos_p[b]] for labelling p. Returns the labelling count
    and the table, symmetric in a and b.

    A mask has k(k-1)/2 bits, at most 28 up to k = 8, so 32-bit fields
    suffice; k = 9 needs 64-bit fields."""
    k = sum(runs)
    blocks = []
    start = 0
    for r in runs:
        blocks.append(permutations(range(start, start + r)))
        start += r
    labellings = [[p for part in parts for p in part] for parts in product(*blocks)]
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            fields = array("I", [bit[pos[a]][pos[b]] for pos in labellings])
            table[a][b] = table[b][a] = int.from_bytes(fields.tobytes(), sys.byteorder)
    return len(labellings), table


def _canonical_mask(adj: list[int], n: int, bit: list[list[int]], tables: dict) -> int:
    """The least edge mask over all labellings of the graph whose degree
    vector is non-increasing by position; bit[p][q] is the mask bit of the
    position pair p, q. Isomorphic graphs, and only they, share it. tables
    maps each run structure met so far to its labelling count and table, and
    serves one bit matrix only.

    The vertices are placed by non-increasing degree, ties by index; a
    labelling then permutes each run of equal degree within its positions.
    The labelling table of the run structure holds the image of every
    position pair under every labelling in one packed int, so the OR of the
    entries of the graph's edges holds its mask under every labelling at
    once, and the answer is the least 32-bit field of that OR."""
    deg = [a.bit_count() for a in adj]
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    runs = tuple(len(list(group)) for _, group in groupby(deg[v] for v in order))
    entry = tables.get(runs)
    if entry is None:
        entry = tables[runs] = _labelling_table(runs, bit)
    count, table = entry
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    masks = 0
    for u in range(n):
        row = table[place[u]]
        for off in _bits(adj[u] >> u):
            masks |= row[place[u + off]]
    return min(memoryview(masks.to_bytes(4 * count, sys.byteorder)).cast("I"))


def _connected_levels(n: int) -> Iterator[tuple[list[tuple[int, int]], list[int]]]:
    """For k = 1..n, the row-major position pairs i < j of k vertices and the
    ascending canonical edge masks of the connected graphs on k vertices,
    one per isomorphism class (bit b of a mask is pair b).

    Built by vertex augmentation: every connected graph on k vertices has a
    vertex whose removal leaves it connected (a leaf of a spanning tree), so
    joining a new vertex to each non-empty subset of each graph on k - 1
    vertices, and keeping the distinct canonical masks, gives every graph on
    k vertices."""
    level = [0]
    pairs: list[tuple[int, int]] = []
    yield pairs, level
    for k in range(2, n + 1):
        below = pairs
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        bit = [[0] * k for _ in range(k)]
        for b, (i, j) in enumerate(pairs):
            bit[i][j] = bit[j][i] = 1 << b
        # run structure -> (labelling count, table), for this level's bit only
        tables: dict[tuple[int, ...], tuple[int, list[list[int]]]] = {}
        found = set()
        for mask in level:
            adj = [0] * k
            for b in _bits(mask):
                i, j = below[b]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            for s in range(1, 1 << (k - 1)):
                grown = [a | (s >> i & 1) << (k - 1) for i, a in enumerate(adj)]
                grown[k - 1] = s
                found.add(_canonical_mask(grown, k, bit, tables))
        level = sorted(found)
        yield pairs, level


def _level_graphs(pairs: list[tuple[int, int]], masks: list[int]) -> Iterator[Graph]:
    """The graphs on v1..vk of one level of _connected_levels."""
    if not pairs:
        yield Graph.from_edges(isolated=("v1",))
        return
    for mask in masks:
        yield Graph.from_edges([(f"v{pairs[b][0] + 1}", f"v{pairs[b][1] + 1}") for b in _bits(mask)])


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Connected graphs on n <= 7 vertices, one per isomorphism class, in
    ascending order of their canonical edge masks (bit k is pair k of the
    row-major pairs i < j; the canonical mask is the least one over the
    labellings whose degree vector is non-increasing)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _check_enum_n("connected-graph", n, _CONNECTED_MAX_N)
    for pairs, masks in _connected_levels(n):
        pass
    yield from _level_graphs(pairs, masks)


# -- seeded random generation -------------------------------------------------


def random_tree(n: int, seed) -> Graph:
    if n < 1:
        raise DomainError(f"trees need n >= 1, got {n}")
    if n == 1:
        return Graph.from_edges(isolated=("v1",))
    if n == 2:
        return Graph.from_edges([("v1", "v2")])
    rng = random.Random(f"tree:{n}:{seed}")
    return prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)))


def random_unicyclic(n: int, seed) -> Graph:
    if n < 3:
        raise DomainError(f"unicyclic graphs need n >= 3, got {n}")
    rng = random.Random(f"unicyclic:{n}:{seed}")
    t = prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)))
    # the k-th non-edge (i, j), i < j, in row-major order, found by counting
    # the non-edges of each row instead of listing all ~n^2/2 of them
    k = rng.randrange(n * (n - 1) // 2 - (n - 1))
    for i in range(n):
        later = t.adj[i] >> (i + 1)
        free = (n - 1 - i) - later.bit_count()
        if k < free:
            break
        k -= free
    j = i + 1
    while later & 1 or k:
        if not later & 1:
            k -= 1
        later >>= 1
        j += 1
    return Graph.from_edges(list(t.edge_labels()) + [(t.labels[i], t.labels[j])])


def random_connected(n: int, seed) -> Graph:
    """A random connected graph: a random spanning tree plus a random subset
    of the remaining pairs, with the extra density itself drawn at random."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n == 1:
        return Graph.from_edges(isolated=("v1",))
    rng = random.Random(f"connected:{n}:{seed}")
    t = (
        prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)))
        if n > 2
        else Graph.from_edges([("v1", "v2")])
    )
    p = rng.uniform(0.0, 0.6)
    edges = list(t.edge_labels())
    for i in range(n):
        for j in range(i + 1, n):
            if not t.adj[i] >> j & 1 and rng.random() < p:
                edges.append((t.labels[i], t.labels[j]))
    return Graph.from_edges(edges)


# -- streams ------------------------------------------------------------------


def _family_orders(family: str, max_n: int | None, budgets: Budgets) -> range:
    """The vertex counts of the graphs of an exhaustive family (trees,
    unicyclic or connected) up to max_n, in increasing order. Raises when
    max_n is missing or beyond the family's enumeration limit: the checks
    family_items makes before its first graph."""
    if max_n is None:
        raise DomainError(f"{family} family needs max_n")
    if family == "connected":
        _check_enum_n("connected-graph", max_n, _CONNECTED_MAX_N)
        return range(1, max_n + 1)
    _check_enum_n("tree" if family == "trees" else "unicyclic", max_n, budgets.enum_n)
    return range(1 if family == "trees" else 3, max_n + 1)


def family_items(
    family: str,
    max_n: int | None = None,
    count: int | None = None,
    size: int | None = None,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Iterator[tuple[str, Graph]]:
    """(graph_id, graph) streams used by the sweep driver and the CLI.

    Exhaustive families (trees, unicyclic, connected) need max_n, and a
    max_n beyond the enumeration limit raises before the first graph; random
    families need count and size. Ids are stable and self-describing.
    """
    if family == "fixtures":
        for name in FIXTURE_NAMES:
            yield name, fixture(name)
    elif family == "trees":
        for n in _family_orders(family, max_n, budgets):
            for i, g in enumerate(enumerate_trees(n, budgets=budgets)):
                yield f"tree:n{n}:{i}", g
    elif family == "unicyclic":
        for n in _family_orders(family, max_n, budgets):
            for i, g in enumerate(enumerate_unicyclic(n, budgets=budgets)):
                yield f"uni:n{n}:{i}", g
    elif family == "connected":
        _family_orders(family, max_n, budgets)
        for n, (pairs, masks) in enumerate(_connected_levels(max_n), 1):
            for i, g in enumerate(_level_graphs(pairs, masks)):
                yield f"conn:n{n}:{i}", g
    elif family == "random-unicyclic":
        if count is None or size is None:
            raise DomainError("random-unicyclic family needs count and size")
        for i in range(count):
            yield f"rand-uni:n{size}:s{seed}:{i}", random_unicyclic(size, f"{seed}:{i}")
    elif family == "random-connected":
        if count is None or size is None:
            raise DomainError("random-connected family needs count and size")
        for i in range(count):
            yield f"rand-conn:n{size}:s{seed}:{i}", random_connected(size, f"{seed}:{i}")
    elif family == "kernel-gap":
        if max_n is None:
            raise DomainError("kernel-gap family needs max_n (largest k)")
        for k in range(1, max_n + 1):
            yield f"kernel-gap:k{k}", kernel_gap_family(k)
    else:
        raise DomainError(f"unknown family {family!r}")
