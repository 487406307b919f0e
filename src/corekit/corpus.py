"""Graph corpora: packaged fixtures, a parametric family, exhaustive
enumerators for trees / unicyclic graphs / small connected graphs, and
seeded random generators.

Enumeration up to isomorphism is direct, not dedupe-after-the-fact on labeled
streams: rooted trees come from the level-sequence successor algorithm and are
deduped by canonical codes computed on the int adjacency of each level
sequence and rooted at the tree's centres, the last layer of the leaf peel
(graph._strip_to_cycles), so a Graph is built only for a tree that is kept.
A level sequence is skipped before it is coded when its root is not a leaf
or its height is below the tree's diameter: the first sequence of each class
is rooted at a vertex of greatest eccentricity (see enumerate_trees).
Unicyclic graphs are free trees plus one non-edge, deduped by a cycle-necklace
code: for each tree, in stream order, and each non-edge (i, j) in row-major
order, the code is read off the tree itself (the cycle is the tree path from i
to j, and each pendant code is a cycle vertex's branch away from the cycle,
from one memo of branch codes per tree), and the first candidate of each
class is kept and only then built as a Graph, from the tree's edges plus
(i, j). A non-edge that swapping two twin leaves of the tree maps to an
earlier one is skipped before it is coded (_added_edge_codes). One memoised
function, _branch_code, builds every rooted code: at a tree's centres and
at each cycle vertex. Connected graphs on at most 7
vertices are grown one vertex at a time from the graphs one vertex smaller and
deduped by their least edge mask over the labellings with a non-increasing
degree vector. Before that mask is computed, a candidate is dropped when some
other vertex of smaller degree than the new one leaves it connected on
removal: every graph is still reached through a deletion of least degree
among those that keep it connected (the cheap half of McKay's canonical
deletion, J. Algorithms 1998), so the classes found do not change, and a
leaf settles most candidates without a walk. A candidate is also dropped
when an automorphism of its parent maps the new vertex's neighbourhood to a
smaller subset: the two candidates are isomorphic with the new vertex
fixed, and both rules above agree on them, so one augmentation per orbit
loses no class. The mask is computed for all degree-respecting labellings
at once: for each structure of equal-degree runs, a table built on first
use in each level packs the image of every position pair under every
labelling into one int, 32 bits per labelling, so a candidate's masks are
the OR of its edges' entries and its canonical mask the least field. The
table is built in bytes, one per labelling: each position's column of
images, a pair's codes from two columns in one big-integer sum, and four
bytes.translate maps from those codes to the bytes of the fields. A parent's
automorphisms are the labellings whose field equals its own mask, read off
the table of the level below. Every enumerator is gated in the tests by
published counts and, at small n, by cross-checks against labeled streams or
a reference sweep.

All randomness is drawn from string-seeded random.Random instances, so every
stream is reproducible from (n, seed) alone, independent of process history.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import sys
from itertools import groupby, permutations
from typing import Iterator, Sequence

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError, DomainError, NotUnicyclicError
from .graph import (
    Graph,
    _bits,
    _components_in,
    _cycle_order,
    _strip_to_cycles,
    classify_shape,
    parse_edge_list,
)

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
    """The labeled tree on v1..v{len(seq)+2} with the given sequence, whose
    entries must lie in 0..len(seq)+1."""
    n = len(seq) + 2
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise DomainError(f"Pruefer entries must lie in 0..{n - 1}, got {s}")
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


def _branch_code(adj: Sequence[int], u: int, away: int, memo: dict) -> str:
    """The rooted code of u's branch that enters no vertex of the away mask:
    "()" for a leaf, else the sorted codes of the branches away from u of
    its remaining neighbours, in parentheses. memo maps (u, away) to the
    code and serves one adjacency only."""
    kids = adj[u] & ~away
    if not kids:
        return "()"  # a leaf, about half the calls, starts no generator
    code = memo.get((u, away))
    if code is None:
        below = 1 << u
        subs = [_branch_code(adj, w, below, memo) for w in _bits(kids)]
        subs.sort()
        code = memo[u, away] = "(" + "".join(subs) + ")"
    return code


def _tree_code(adj: Sequence[int], n: int) -> str:
    """The least code of the tree rooted at a centre."""
    memo: dict[tuple[int, int], str] = {}
    centres = _strip_to_cycles(adj, (1 << n) - 1)[1]
    return min(_branch_code(adj, c, 0, memo) for c in _bits(centres))


def tree_code(g: Graph) -> str:
    """Canonical string; two trees get the same code iff they are isomorphic.
    Raises DomainError unless g is a tree with at least one vertex."""
    if classify_shape(g).kind != "tree":
        raise DomainError(f"tree_code needs a tree, got n={g.n}, m={g.m}")
    return _tree_code(g.adj, g.n)


def _necklace_code(codes: list[str]) -> str:
    """The cycle length and the least rotation or reflection of the pendant
    codes along the cycle, compared as sequences of codes."""
    ell = len(codes)
    least = min(codes)
    turns = (codes * 2, codes[::-1] * 2)
    # the least sequence starts with the least code: compare only those slices
    return f"{ell}:" + "".join(
        min(d[s : s + ell] for d in turns for s in range(ell) if d[s] == least)
    )


def unicyclic_code(g: Graph) -> str:
    """Canonical string for a connected unicyclic graph: cycle length plus the
    lexicographically smallest rotation/reflection of the sequence of
    pendant-tree codes along the cycle. Raises NotUnicyclicError unless g is
    connected and unicyclic."""
    if classify_shape(g).kind != "unicyclic":
        raise NotUnicyclicError(
            f"unicyclic_code needs a connected unicyclic graph, got n={g.n}, m={g.m}"
        )
    adj = g.adj
    cyc = _strip_to_cycles(adj, (1 << g.n) - 1)[0]
    memo: dict[tuple[int, int], str] = {}
    return _necklace_code(
        [_branch_code(adj, v, adj[v] & cyc, memo) for v in _cycle_order(adj, cyc)]
    )


def _twin_reps(adj: Sequence[int]) -> list[int]:
    """The lowest vertex with the same adjacency row as each vertex. In a
    tree on three or more vertices such twins are leaves of one parent, and
    swapping two of them is an automorphism."""
    first: dict[int, int] = {}
    return [first.setdefault(row, v) for v, row in enumerate(adj)]


def _added_edge_codes(adj: tuple[int, ...], n: int) -> Iterator[tuple[int, int, str]]:
    """(i, j, code) for each non-edge i < j of the tree with adjacency adj, in
    row-major order, where code is unicyclic_code of the tree plus edge ij,
    except the non-edges that a twin swap maps to an earlier one (McKay's one
    augmentation per orbit, J. Algorithms 1998): with rep = _twin_reps(adj),
    row i when rep[i] < i, and (i, j) when rep[j] < j and rep[j] != i. The
    swapped pair, (rep[i], j) or i with rep[j], comes earlier in row-major
    order and has the same code, so a skipped pair is never the first of its
    class.

    The cycle is the tree path from i to j, found through parent pointers
    from vertex 0. A cycle vertex's pendant code is its branch away from its
    cycle neighbours, the same in the tree and in the unicyclic graph, so
    one _branch_code memo serves every candidate of the tree: each branch
    off a path is coded once per directed edge, and each pendant code once
    per pair of cycle neighbours."""
    parent = [-1] * n
    depth = [0] * n
    order = [0]
    for v in order:
        for u in _bits(adj[v] & ~(1 << parent[v] if v else 0)):
            parent[u] = v
            depth[u] = depth[v] + 1
            order.append(u)
    memo: dict[tuple[int, int], str] = {}
    rep = _twin_reps(adj)
    for i in range(n):
        if rep[i] < i:
            continue
        for j in range(i + 1, n):
            if adj[i] >> j & 1 or (rep[j] < j and rep[j] != i):
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
            yield i, j, _necklace_code([_branch_code(adj, v, adj[v] & mask, memo) for v in cycle])


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
    """Trees on n vertices, one per isomorphism class: the first level
    sequence of each class, in stream order.

    Two kinds of sequence are skipped before they are coded, as neither is
    ever the first of its class: one whose root is not a leaf (a second 2
    in it), and one whose height is below the tree's diameter.
    _level_sequences lists the canonical sequences in decreasing
    lexicographic order, and a canonical sequence starts 1, 2, ..., h + 1,
    where h is the root's height (Beyer and Hedetniemi, SIAM J. Comput.
    1980). So the first sequence of a free tree is rooted at a vertex of
    greatest eccentricity, the diameter, and such a vertex is a leaf: a
    neighbour on no path to its farthest vertex would be one step farther
    from that vertex."""
    if n < 1:
        raise DomainError(f"trees need n >= 1, got {n}")
    _check_enum_n("tree", n, budgets.enum_n)
    seen = set()
    for seq in _level_sequences(n):
        if 2 in seq[2:]:
            continue  # the cheap test first
        parent = _level_parents(seq)
        # the height below each vertex, children first: parent[v] < v
        below = [0] * n
        diameter = 0
        for v in range(n - 1, 0, -1):
            p, d = parent[v], below[v] + 1
            diameter = max(diameter, below[p] + d)
            below[p] = max(below[p], d)
        if diameter > below[0]:
            continue
        adj = [0] * n
        for v in range(1, n):
            adj[v] |= 1 << parent[v]
            adj[parent[v]] |= 1 << v
        code = _tree_code(adj, n)
        if code not in seen:
            seen.add(code)
            # parent[v] < v, so the edges (v{parent[v] + 1}, v{v + 1}) name
            # the vertices in index order
            yield Graph(tuple(f"v{v + 1}" for v in range(n)), tuple(adj), n - 1)


def enumerate_unicyclic(n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Iterator[Graph]:
    """Connected unicyclic graphs on n vertices, one per isomorphism class."""
    if n < 3:
        raise DomainError(f"unicyclic graphs need n >= 3, got {n}")
    _check_enum_n("unicyclic", n, budgets.enum_n)
    seen = set()
    for t in enumerate_trees(n, budgets=budgets):
        # each graph names its vertices in the order of first appearance in
        # the tree's sorted edge labels, then the added edge
        base = Graph.from_edges(t.edge_labels())
        for i, j, code in _added_edge_codes(t.adj, n):
            if code not in seen:
                seen.add(code)
                a, b = base.index_of(t.labels[i]), base.index_of(t.labels[j])
                adj = list(base.adj)
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                yield Graph(base.labels, tuple(adj), n)


def _byte_maps(bit: list[list[int]]) -> list[bytes]:
    """Four bytes.translate tables for the bit matrix of k <= 8 positions:
    map t takes the pair code a * k + b to byte t of bit[a][b] as a 32-bit
    field in native byte order."""
    k = len(bit)
    fields = [bit[a][b].to_bytes(4, sys.byteorder) for a in range(k) for b in range(k)]
    return [bytes(f[t] for f in fields).ljust(256, b"\0") for t in range(4)]


def _labelling_table(
    runs: tuple[int, ...], maps: list[bytes]
) -> tuple[int, list[list[int]], list[bytes]]:
    """The labellings of k = sum(runs) positions that permute each run of
    positions within itself, in product(permutations(run)) order, packed
    into one int per position pair: field p of table[a][b] (32 bits wide)
    is bit[pos_p[a]][pos_p[b]] for labelling p, where maps are the byte
    maps of bit (_byte_maps). Returns the labelling count, the table,
    symmetric in a and b, and the columns: byte p of columns[a] is pos_p[a].

    The table is built in bytes, one byte per labelling. A run's column
    lists its permutations' entries at that position, each repeated once
    per labelling of the later runs, and the whole block repeats once per
    labelling of the earlier runs. For a pair a, b, col_a * k + col_b, read
    as big integers, holds pos_p[a] * k + pos_p[b] in byte p with no carry,
    since it is below 64; the four byte maps turn those codes into the four
    bytes of each field, interleaved into place by extended slices.

    A mask has k(k-1)/2 bits, at most 28 up to k = 8, so 32-bit fields
    suffice; k = 9 needs 64-bit fields."""
    k = sum(runs)
    count = math.prod(math.factorial(r) for r in runs)
    columns = []
    earlier = 1
    start = 0
    for r in runs:
        flat = b"".join(map(bytes, permutations(range(start, start + r))))
        size = len(flat) // r
        later = count // (earlier * size)
        for j in range(r):
            col = flat[j::r]
            if later > 1:
                # repeat each entry later times, in min(size, later) steps
                if later < size:
                    spread = bytearray(size * later)
                    for q in range(later):
                        spread[q::later] = col
                    col = bytes(spread)
                else:
                    col = b"".join(col[i : i + 1] * later for i in range(size))
            columns.append(col * earlier)
        earlier *= size
        start += r
    heads = [int.from_bytes(col, "big") * k for col in columns]
    tails = [int.from_bytes(col, "big") for col in columns]
    table = [[0] * k for _ in range(k)]
    fields = bytearray(4 * count)
    for a in range(k):
        for b in range(a + 1, k):
            codes = (heads[a] + tails[b]).to_bytes(count, "big")
            for t in range(4):
                fields[t::4] = codes.translate(maps[t])
            table[a][b] = table[b][a] = int.from_bytes(fields, sys.byteorder)
    return count, table, columns


def _labelled_masks(
    adj: list[int], n: int, bit: list[list[int]], tables: dict
) -> tuple[int, list[bytes], int]:
    """(count, columns, masks) for the graph placed by non-increasing
    degree, ties by index: the labelling count and columns of its run
    structure's table (_labelling_table), and the OR of its edges' table
    entries, whose field p is its edge mask under labelling p. tables maps
    each run structure met so far to its entry, and None to the byte maps
    of bit, built on the first miss; it serves one bit matrix only."""
    deg = [a.bit_count() for a in adj]
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    runs = tuple(len(list(group)) for _, group in groupby(deg[v] for v in order))
    entry = tables.get(runs)
    if entry is None:
        maps = tables.get(None)
        if maps is None:
            maps = tables[None] = _byte_maps(bit)
        entry = tables[runs] = _labelling_table(runs, maps)
    count, table, columns = entry
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    masks = 0
    for u in range(n):
        row = table[place[u]]
        for off in _bits(adj[u] >> u):
            masks |= row[place[u + off]]
    return count, columns, masks


def _canonical_mask(adj: list[int], n: int, bit: list[list[int]], tables: dict) -> int:
    """The least edge mask over all labellings of the graph whose degree
    vector is non-increasing by position; bit[p][q] is the mask bit of the
    position pair p, q. Isomorphic graphs, and only they, share it. tables
    serves one bit matrix only (see _labelled_masks).

    The vertices are placed by non-increasing degree, ties by index; a
    labelling then permutes each run of equal degree within its positions.
    The labelling table of the run structure holds the image of every
    position pair under every labelling in one packed int, so the OR of the
    entries of the graph's edges holds its mask under every labelling at
    once, and the answer is the least 32-bit field of that OR."""
    count, _, masks = _labelled_masks(adj, n, bit, tables)
    return min(memoryview(masks.to_bytes(4 * count, sys.byteorder)).cast("I"))


def _automorphism_images(
    adj: list[int], n: int, mask: int, bit: list[list[int]], tables: dict
) -> tuple[int, list[int]]:
    """(m, images) for the m automorphisms sigma_1..sigma_m other than the
    identity of the graph adj, whose degree vector is non-increasing by
    index and whose edge mask under bit is mask: byte i of images[v], an
    m-byte big-endian int, is 1 << sigma_i(v), so the OR of images[v] over
    the vertices v of a mask S holds sigma_i(S) in byte i (n <= 8).

    Every automorphism respects degrees, so it is one of the labellings of
    the graph's run structure: a labelling p whose field of the OR of the
    edges' table entries equals mask, read off the table's columns."""
    count, columns, masks = _labelled_masks(adj, n, bit, tables)
    fields = memoryview(masks.to_bytes(4 * count, sys.byteorder)).cast("I")
    found = [p for p in range(1, count) if fields[p] == mask]
    return len(found), [
        int.from_bytes(bytes([1 << col[p] for p in found]), "big") for col in columns
    ]


def _lighter_deletion(adj: list[int], k: int, d: int) -> bool:
    """Whether some vertex x < k - 1 of the connected graph adj on k vertices
    has degree below d and leaves the graph connected when removed."""
    full = (1 << k) - 1
    return any(
        adj[x].bit_count() < d and len(_components_in(adj, full & ~(1 << x))) == 1
        for x in range(k - 1)
    )


def _connected_levels(n: int) -> Iterator[tuple[list[tuple[int, int]], list[int]]]:
    """For k = 1..n, the row-major position pairs i < j of k vertices and the
    ascending canonical edge masks of the connected graphs on k vertices,
    one per isomorphism class (bit b of a mask is pair b).

    Built by vertex augmentation: every connected graph on k vertices has a
    vertex whose removal leaves it connected (a leaf of a spanning tree), so
    joining a new vertex v to each non-empty subset S of each graph on k - 1
    vertices, and keeping the distinct canonical masks, gives every graph on
    k vertices.

    A candidate is dropped unlabelled when some other vertex x has a smaller
    degree than v (|S|) and leaves it connected when removed. This loses no
    class: in a connected graph H on k vertices, take x of least degree
    among the vertices whose removal leaves H connected. H - x is a graph of
    the level below, so H is one of its candidates with v in the place of x
    and |S| = deg x, and in that candidate no vertex that keeps it connected
    is lighter than v, so it is kept. When |S| > 1, a leaf outside S is such
    an x, so only candidates without one are walked.

    A candidate is also dropped unlabelled when an automorphism sigma of
    its parent P maps S to a smaller subset (one augmentation per orbit,
    after McKay). P + v_S and P + v_sigma(S) are isomorphic through sigma
    with v fixed, and both rules above only read the graph and v, so an
    orbit's members are kept or dropped together: keeping its least subset
    loses no class. The parent's automorphisms come from the level below's
    labelling tables (_automorphism_images); most parents have only the
    identity and pay for no test."""
    level = [0]
    pairs: list[tuple[int, int]] = []
    bit = [[0]]
    # run structure -> _labelling_table entry, and None -> _byte_maps, for one bit
    tables: dict = {}
    yield pairs, level
    for k in range(2, n + 1):
        below, below_bit, below_tables = pairs, bit, tables
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        bit = [[0] * k for _ in range(k)]
        for b, (i, j) in enumerate(pairs):
            bit[i][j] = bit[j][i] = 1 << b
        tables = {}
        found = set()
        for mask in level:
            adj = [0] * k
            for b in _bits(mask):
                i, j = below[b]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            leaves = sum(1 << x for x in range(k - 1) if adj[x].bit_count() == 1)
            m, images = _automorphism_images(adj, k - 1, mask, below_bit, below_tables)
            # the images of the subsets taken so far: subsets ascend, and the
            # leaf rule drops whole orbits, so each orbit's least comes first
            seen = set()
            for s in range(1, 1 << (k - 1)):
                d = s.bit_count()
                # a leaf outside S stays a leaf, lighter than v when d > 1
                if d > 1 and leaves & ~s:
                    continue
                if m:
                    if s in seen:
                        continue
                    orbit = 0
                    for v in _bits(s):
                        orbit |= images[v]
                    seen.update(orbit.to_bytes(m, "big"))
                grown = [a | (s >> i & 1) << (k - 1) for i, a in enumerate(adj)]
                grown[k - 1] = s
                # no other vertex is a leaf now, so only d > 2 needs a walk
                if d < 3 or not _lighter_deletion(grown, k, d):
                    found.add(_canonical_mask(grown, k, bit, tables))
        level = sorted(found)
        yield pairs, level


def _level_graphs(pairs: list[tuple[int, int]], masks: list[int]) -> Iterator[Graph]:
    """The graphs on v1..vk of one level of _connected_levels."""
    if not pairs:
        yield Graph.from_edges(isolated=("v1",))
        return
    for mask in masks:
        # vertex v is labelled v{v + 1}, and the labels are indexed in order
        # of first appearance along the pairs of the mask, as from_edges does
        edges = [pairs[b] for b in _bits(mask)]
        order = {}
        for u, v in edges:
            order.setdefault(u, len(order))
            order.setdefault(v, len(order))
        adj = [0] * len(order)
        for u, v in edges:
            adj[order[u]] |= 1 << order[v]
            adj[order[v]] |= 1 << order[u]
        yield Graph(tuple(f"v{v + 1}" for v in order), tuple(adj), len(edges))


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
    t = prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)))
    p = rng.uniform(0.0, 0.6)
    edges = list(t.edge_labels())
    for i in range(n):
        for j in range(i + 1, n):
            if not t.adj[i] >> j & 1 and rng.random() < p:
                edges.append((t.labels[i], t.labels[j]))
    return Graph.from_edges(edges)


# -- streams ------------------------------------------------------------------


def _family_orders(
    family: str,
    max_n: int | None,
    budgets: Budgets,
    count: int | None = None,
    size: int | None = None,
) -> Sequence[int]:
    """The vertex counts of the graphs that family_items yields for these
    arguments, in its order: each fixture's, each order of an exhaustive
    family (trees, unicyclic or connected) up to max_n once, 2k + 5 for
    kernel_gap_family(k) with k = 1..max_n, and a random family's size once
    unless count is 0. Raises when an argument is missing or an exhaustive
    max_n is beyond the family's enumeration limit: the checks family_items
    makes before its first graph."""
    if family == "fixtures":
        return tuple(fixture(name).n for name in FIXTURE_NAMES)
    if family in ("random-unicyclic", "random-connected"):
        if count is None or size is None:
            raise DomainError(f"{family} family needs count and size")
        return (size,) if count else ()
    if family == "kernel-gap":
        if max_n is None:
            raise DomainError("kernel-gap family needs max_n (largest k)")
        return range(7, 2 * max_n + 6, 2)
    if family not in ("trees", "unicyclic", "connected"):
        raise DomainError(f"unknown family {family!r}")
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
    if family == "fixtures":  # its orders would parse every fixture twice
        for name in FIXTURE_NAMES:
            yield name, fixture(name)
        return
    orders = _family_orders(family, max_n, budgets, count, size)
    if family == "trees":
        for n in orders:
            for i, g in enumerate(enumerate_trees(n, budgets=budgets)):
                yield f"tree:n{n}:{i}", g
    elif family == "unicyclic":
        for n in orders:
            for i, g in enumerate(enumerate_unicyclic(n, budgets=budgets)):
                yield f"uni:n{n}:{i}", g
    elif family == "connected":
        # zip stops with the orders, so max_n = 0 builds no level at all
        for n, (pairs, masks) in zip(orders, _connected_levels(max_n)):
            for i, g in enumerate(_level_graphs(pairs, masks)):
                yield f"conn:n{n}:{i}", g
    elif family == "random-unicyclic":
        for i in range(count):
            yield f"rand-uni:n{size}:s{seed}:{i}", random_unicyclic(size, f"{seed}:{i}")
    elif family == "random-connected":
        for i in range(count):
            yield f"rand-conn:n{size}:s{seed}:{i}", random_connected(size, f"{seed}:{i}")
    else:  # kernel-gap
        for k in range(1, max_n + 1):
            yield f"kernel-gap:k{k}", kernel_gap_family(k)
