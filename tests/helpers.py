"""Dumb, slow reference implementations used to cross-check the library.

Everything here recomputes invariants from scratch by sweeping vertex or
edge subsets, reading only the graph's labels and edge list. None of the
library's clever paths (tree DP, branch and bound, augmenting paths) are
reused, so a shared bug cannot hide in both sides of a comparison.

The later functions keep loops that faster library code replaced, on the
library's bitmask adjacency, so the tests can require the replacements to
give the very same results, and the labelled tree and unicyclic streams,
which only the tests use.
"""

from __future__ import annotations

import sys
from array import array
from itertools import permutations, product

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, ok: bool, detail: str) -> str:
    """Stash one pass/fail line for the end-of-run summary and print it."""
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def indexed_adjacency(g) -> tuple[list[str], list[int]]:
    """Rebuild bitmask adjacency from the public label/edge API only."""
    labels = list(g.labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = [0] * len(labels)
    for a, b in g.edge_labels():
        ia, ib = idx[a], idx[b]
        adj[ia] |= 1 << ib
        adj[ib] |= 1 << ia
    return labels, adj


def _is_independent(adj: list[int], mask: int) -> bool:
    mm = mask
    while mm:
        b = mm & -mm
        if adj[b.bit_length() - 1] & mask:
            return False
        mm ^= b
    return True


def _neighborhood(adj: list[int], mask: int) -> int:
    out = 0
    mm = mask
    while mm:
        b = mm & -mm
        out |= adj[b.bit_length() - 1]
        mm ^= b
    return out


def _labelset(labels: list[str], mask: int) -> frozenset[str]:
    return frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)


def oracle_alpha(g) -> int:
    """The largest independent vertex subset, every subset visited: x is
    independent iff x minus its lowest vertex v is, and v has no neighbour
    in x."""
    labels, adj = indexed_adjacency(g)
    ok = bytearray(1 << len(labels))
    ok[0] = 1
    best = 0
    for x in range(1, len(ok)):
        low = x & -x
        if ok[x ^ low] and not adj[low.bit_length() - 1] & x:
            ok[x] = 1
            best = max(best, x.bit_count())
    return best


def oracle_mis_family(g) -> set[frozenset[str]]:
    labels, adj = indexed_adjacency(g)
    a = oracle_alpha(g)
    return {
        _labelset(labels, mask)
        for mask in range(1 << len(labels))
        if mask.bit_count() == a and _is_independent(adj, mask)
    }


def oracle_core(g) -> frozenset[str]:
    fam = oracle_mis_family(g)
    out = frozenset(g.labels)
    for s in fam:
        out &= s
    return out


def oracle_corona(g) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for s in oracle_mis_family(g):
        out |= s
    return out


def oracle_mu(g) -> int:
    """Maximum matching size by sweeping edge subsets. Guarded so nobody
    accidentally points it at a graph where 2^m is out of reach."""
    labels, _ = indexed_adjacency(g)
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = [(idx[a], idx[b]) for a, b in g.edge_labels()]
    m = len(edges)
    if m > 16:
        raise ValueError(f"oracle_mu is for m <= 16, got {m}")
    # used[x]: the vertices the edge subset x covers, -1 unless x is a
    # matching (x minus its lowest edge is one, and that edge is disjoint)
    used = [0] * (1 << m)
    best = 0
    for x in range(1, 1 << m):
        low = x & -x
        a_, b_ = edges[low.bit_length() - 1]
        pair = 1 << a_ | 1 << b_
        rest = used[x ^ low]
        if rest < 0 or rest & pair:
            used[x] = -1
        else:
            used[x] = rest | pair
            best = max(best, x.bit_count())
    return best


def oracle_is_ke(g) -> bool:
    return oracle_alpha(g) + oracle_mu(g) == len(g.labels)


def oracle_critical(g) -> tuple[int, int, frozenset[str]]:
    """(d_c, id_c, ker) by direct definition: d_c maximizes |X|-|N(X)| over
    all subsets, id_c over independent subsets, and ker intersects every
    independent subset attaining id_c."""
    labels, adj = indexed_adjacency(g)
    n = len(labels)
    d_c = 0
    id_c = 0
    for mask in range(1 << n):
        d = mask.bit_count() - _neighborhood(adj, mask).bit_count()
        if d > d_c:
            d_c = d
        if d > id_c and _is_independent(adj, mask):
            id_c = d
    ker_mask = (1 << n) - 1 if n else 0
    for mask in range(1 << n):
        if not _is_independent(adj, mask):
            continue
        if mask.bit_count() - _neighborhood(adj, mask).bit_count() == id_c:
            ker_mask &= mask
    return d_c, id_c, _labelset(labels, ker_mask)


def oracle_ker(g) -> frozenset[str]:
    return oracle_critical(g)[2]


def _list_sweep(g):
    """d_c, id_c, the witness mask and the critical independent masks in
    increasing order, from a list of 2^n neighbourhood masks, each built from
    a previously visited subset by dropping its lowest bit, looped over three
    times."""
    adj = g.adj
    size = 1 << g.n
    nbh = [0] * size
    for x in range(1, size):
        low = x & -x
        nbh[x] = nbh[x ^ low] | adj[low.bit_length() - 1]
    d_c = 0
    id_c = 0
    witness = 0
    for x in range(size):
        d = x.bit_count() - nbh[x].bit_count()
        if d > d_c:
            d_c = d
            witness = x
        if d > id_c and nbh[x] & x == 0:
            id_c = d
    crit: list[int] = []
    for x in range(size):
        if nbh[x] & x:
            continue
        if x.bit_count() - nbh[x].bit_count() == id_c:
            crit.append(x)
    return d_c, id_c, witness, crit


def critical_independent_masks(g):
    """Every critical independent set of g as a vertex mask, lowest first."""
    return _list_sweep(g)[3]


def subset_sweep_reference(g):
    """The report critical.critical_difference_bruteforce gave before it was
    bit-sliced, from the list sweep: ker is the AND of the critical
    independent masks."""
    from corekit import CriticalReport, VertexSet

    d_c, id_c, witness, crit = _list_sweep(g)
    ker_mask = (1 << g.n) - 1
    for x in crit:
        ker_mask &= x
    return CriticalReport(
        d_c=d_c,
        id_c=id_c,
        witness_set=VertexSet(g, witness),
        ker=VertexSet(g, ker_mask),
    )


def mis_family_reference(g):
    """The family independence.enumerate_mis gave before its exhaustive
    alpha memo: the same lowest-vertex recursion, with the target and every
    pruning bound from the dispatching independence._alpha_active, memoised
    per mask."""
    from corekit import VertexSet
    from corekit.budgets import DEFAULT_BUDGETS
    from corekit.independence import _alpha_active

    adj = g.adj
    full = (1 << g.n) - 1
    memo: dict[int, int] = {}

    def am(active: int) -> int:
        got = memo.get(active)
        if got is None:
            got = memo[active] = _alpha_active(adj, active, DEFAULT_BUDGETS)
        return got

    found: list[int] = []

    def rec(active: int, need: int, chosen: int) -> None:
        if need == 0:
            found.append(chosen)
            return
        if active.bit_count() < need or am(active) < need:
            return
        b = active & -active
        v = b.bit_length() - 1
        rec(active & ~(adj[v] | b), need - 1, chosen | b)
        rec(active & ~b, need, chosen)

    rec(full, am(full), 0)
    sets = [VertexSet(g, mask) for mask in found]
    sets.sort(key=lambda s: s.labels())
    return tuple(sets)


def _forest_removals_reference(adj: tuple[int, ...], active: int, closed: bool):
    """alpha of the forest F induced on the active mask and, for each vertex
    v of F, alpha(F - N_F[v]) if closed, else alpha(F - v): the rerooting
    pass of independence._forest_removals with its per-vertex table, before
    it kept only the mask of the vertices whose removal drops alpha."""
    from corekit.independence import _forest_dp

    total, order, parent, take, skip = _forest_dp(adj, active)
    # the DP's lists, and up_skip and up_best here, are indexed by walk position
    up_skip: dict[int, int] = {}
    up_best: dict[int, int] = {}
    after: dict[int, int] = {}
    rest = 0
    for i, v in enumerate(order):
        p = parent[i]
        if p < 0:
            rest = total - max(take[i], skip[i])
            us = ub = 0
        else:
            us = skip[p] - max(take[i], skip[i]) + up_best[p]
            ub = max(take[p] - skip[i] + up_skip[p], us)
        up_skip[i] = us
        up_best[i] = ub
        after[v] = rest + (take[i] - 1 + us if closed else skip[i] + ub)
    return total, after


def unicyclic_drops_reference(g, closed: bool):
    """core(g) if not closed, corona(g) if closed, as
    independence._alpha_drops gave them before its unicyclic branch took the
    set of the larger side of the split: each forest and unicyclic component
    gets a per-vertex table of alpha(C - X_v), and on a unicyclic component
    the tables of C - u and C - N[u] (u its lowest cycle vertex) are merged
    vertex by vertex, with the neighbours of u as special cases. Every other
    component goes to the library's _alpha_drops, whose (alpha, core,
    corona) gives the core mask at index 1 and the corona mask at 2."""
    from corekit import VertexSet
    from corekit.budgets import DEFAULT_BUDGETS
    from corekit.graph import _components_in, _edge_count, _strip_to_cycles
    from corekit.independence import _alpha_drops

    adj = g.adj
    out = 0
    for comp, _ in _components_in(adj, (1 << g.n) - 1):
        nv = comp.bit_count()
        ne = _edge_count(adj, comp)
        if ne == nv - 1:
            a, after = _forest_removals_reference(adj, comp, closed)
        elif ne == nv:
            cyc = _strip_to_cycles(adj, comp)[0]
            u = (cyc & -cyc).bit_length() - 1
            nbrs = adj[u] & comp
            a1, f1 = _forest_removals_reference(adj, comp & ~(1 << u), closed)
            a2, f2 = _forest_removals_reference(adj, comp & ~(nbrs | 1 << u), closed)
            a = max(a1, 1 + a2)
            after = {u: a2 if closed else a1}
            for v in f1:
                if not nbrs >> v & 1:
                    after[v] = max(f1[v], 1 + f2[v])
                elif closed:
                    after[v] = f1[v]
                else:
                    after[v] = max(f1[v], 1 + a2)
        else:
            out |= _alpha_drops(adj, comp, DEFAULT_BUDGETS)[1 + closed]
            continue
        for v, b in after.items():
            if b == a - 1:
                out |= 1 << v
    return VertexSet(g, out)


def canonical_mask_reference(adj: list[int], n: int, bit: list[list[int]]) -> int:
    """The least edge mask over the labellings whose degree vector is
    non-increasing by position, one labelling at a time: the loop that
    corpus._canonical_mask's labelling tables replaced."""
    deg = [a.bit_count() for a in adj]
    order = sorted(range(n), key=lambda v: -deg[v])
    place = {v: i for i, v in enumerate(order)}
    edges = [(place[u], place[v]) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    runs = []
    start = 0
    for i in range(1, n + 1):
        if i == n or deg[order[i]] != deg[order[start]]:
            runs.append(permutations(range(start, i)))
            start = i
    best = -1
    for parts in product(*runs):
        pos = [p for part in parts for p in part]
        mask = 0
        for a, b in edges:
            mask |= bit[pos[a]][pos[b]]
        if best < 0 or mask < best:
            best = mask
    return best


def labelling_table_reference(runs: tuple[int, ...], bit: list[list[int]]):
    """(count, table, columns) of corpus._labelling_table, one labelling
    at a time: the list-comprehension builder that its byte kernel
    replaced. columns[a] holds pos_p[a] for every labelling p."""
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
    columns = [bytes(pos[a] for pos in labellings) for a in range(k)]
    return len(labellings), table, columns


def automorphisms_reference(adj, n: int) -> list[tuple[int, ...]]:
    """The automorphisms of the graph other than the identity, as tuples
    sigma with sigma[v] the image of v, in lexicographic order, by trying
    every permutation."""
    edges = {(u, v) for u in range(n) for v in range(n) if adj[u] >> v & 1}
    return [
        sigma
        for sigma in permutations(range(n))
        if sigma != tuple(range(n)) and all((sigma[u], sigma[v]) in edges for u, v in edges)
    ]


def connected_levels_reference(n: int):
    """For k = 1..n, (bit, candidates, masks): the vertex augmentation of
    corpus._connected_levels without its deletion filter. candidates are the
    adjacency lists of every P + v_S, P a graph of the level below and S a
    non-empty subset of its vertices, in loop order; masks are the sorted
    distinct canonical masks of all of them."""
    from corekit.corpus import _canonical_mask

    level = [0]
    pairs: list[tuple[int, int]] = []
    yield [[0]], [], level
    for k in range(2, n + 1):
        below = pairs
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        bit = [[0] * k for _ in range(k)]
        for b, (i, j) in enumerate(pairs):
            bit[i][j] = bit[j][i] = 1 << b
        candidates = []
        for mask in level:
            adj = [0] * k
            for b, (i, j) in enumerate(below):
                if mask >> b & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            for s in range(1, 1 << (k - 1)):
                grown = [a | (s >> i & 1) << (k - 1) for i, a in enumerate(adj)]
                grown[k - 1] = s
                candidates.append(grown)
        tables: dict = {}
        level = sorted({_canonical_mask(adj, k, bit, tables) for adj in candidates})
        yield bit, candidates, level


def lighter_deletion_reference(adj: list[int], k: int) -> bool:
    """Whether some vertex x < k - 1 has a smaller degree than vertex k - 1
    and leaves the graph connected when removed, by a depth-first search
    from a remaining vertex for each x."""
    for x in range(k - 1):
        if bin(adj[x]).count("1") >= bin(adj[k - 1]).count("1"):
            continue
        seen = {k - 1}
        stack = [k - 1]
        while stack:
            u = stack.pop()
            for w in range(k):
                if w != x and w not in seen and adj[u] >> w & 1:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == k - 1:
            return True
    return False


def bb_alpha_reference(adj: tuple[int, ...], active: int) -> int:
    """alpha of the subgraph induced on the active mask by the counting
    branch-and-bound that independence._bb_set replaced: the same degree
    <= 1 reductions and branching order, keeping only sizes, and the greedy
    start (a minimum-degree vertex at a time) that _bb_set later dropped."""
    best = 0
    rest_active = active
    while rest_active:
        v = min(
            (u for u in range(len(adj)) if rest_active >> u & 1),
            key=lambda u: (adj[u] & rest_active).bit_count(),
        )
        best += 1
        rest_active &= ~(adj[v] | 1 << v)

    def rec(active: int, size: int) -> None:
        nonlocal best
        while active:
            picked = -1
            rest = active
            while rest:
                b = rest & -rest
                v = b.bit_length() - 1
                rest ^= b
                if (adj[v] & active).bit_count() <= 1:
                    picked = v
                    break
            if picked < 0:
                break
            size += 1
            active &= ~(adj[picked] | 1 << picked)
        if not active:
            best = max(best, size)
            return
        if size + active.bit_count() <= best:
            return
        v = -1
        vdeg = -1
        rest = active
        while rest:
            b = rest & -rest
            u = b.bit_length() - 1
            rest ^= b
            d = (adj[u] & active).bit_count()
            if d > vdeg:
                v, vdeg = u, d
        rec(active & ~(adj[v] | 1 << v), size + 1)
        rec(active & ~(1 << v), size)

    rec(active, 0)
    return best


def bb_set_reference(adj: tuple[int, ...], active: int) -> int:
    """independence._bb_set as a recursion, one call per branching, as it
    was before it moved to an explicit stack: the same reductions, the
    include branch first, and the first largest set found kept."""
    best = best_size = 0

    def rec(active: int, chosen: int, size: int) -> None:
        nonlocal best, best_size
        while active:
            v = vdeg = -1
            for u in range(len(adj)):
                if active >> u & 1:
                    d = (adj[u] & active).bit_count()
                    if d <= 1:
                        size += 1
                        chosen |= 1 << u
                        active &= ~(adj[u] | 1 << u)
                        break
                    if d > vdeg:
                        v, vdeg = u, d
            else:
                break
        if not active:
            if size > best_size:
                best, best_size = chosen, size
            return
        if size + active.bit_count() <= best_size:
            return
        rec(active & ~(adj[v] | 1 << v), chosen | 1 << v, size + 1)
        rec(active & ~(1 << v), chosen, size)

    rec(active, 0, 0)
    return best


def strip_to_cycles_reference(adj: tuple[int, ...], active: int) -> int:
    """graph._strip_to_cycles as it was before it checked only the
    neighbours of dropped vertices: rescan every active vertex, dropping
    each with at most one active neighbour, until a pass drops none."""
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            if active >> v & 1 and (adj[v] & active).bit_count() <= 1:
                active &= ~(1 << v)
                changed = True
    return active


def two_coloring_reference(adj: tuple[int, ...], active: int) -> int | None:
    """The colour-0 class of a proper 2-colouring of the subgraph induced on
    the active mask, the lowest vertex of each component coloured 0; None if
    the subgraph has an odd cycle: graph._two_coloring as it was before the
    component walk gave the colour classes. Breadth-first layers alternate
    colours, so the colouring is proper iff no edge joins two vertices of
    one layer."""
    left = 0
    rest = active
    while rest:
        comp = frontier = rest & -rest
        even = True
        while frontier:
            nxt = _neighborhood(adj, frontier)
            if nxt & frontier:
                return None
            if even:
                left |= frontier
            even = not even
            frontier = nxt & active & ~comp
            comp |= frontier
        rest &= ~comp
    return left


def non_critical_cycle_edges_reference(g, cycle: tuple[str, ...], a: int) -> list[tuple[str, str]]:
    """unicyclic._non_critical_cycle_edges as it was before its prefix and
    suffix DPs: the same pendant-forest DP and per-vertex weights, then a
    fresh path DP for each cycle edge, O(L^2) in the cycle length L."""
    from corekit.graph import _bits, _union
    from corekit.independence import _forest_dp

    adj = g.adj
    idx = [g.index_of(c) for c in cycle]
    cyc = g.set_of(cycle).mask
    rest = (1 << g.n) - 1 & ~cyc
    _, order, _, take, skip = _forest_dp(adj, rest, _union(adj, cyc) & rest)
    at = {v: i for i, v in enumerate(order)}  # the DP's lists are indexed by walk position
    weights = []
    for c in idx:
        took, skipped = 1, 0
        for r in _bits(adj[c] & rest):
            took += skip[at[r]]
            skipped += max(take[at[r]], skip[at[r]])
        weights.append((took, skipped))
    size = len(idx)
    bad = []
    for k in range(size):
        took, skipped = weights[(k + 1) % size]
        for j in range(k + 2, k + 1 + size):
            t, s = weights[j % size]
            took, skipped = skipped + t, max(took, skipped) + s
        if max(took, skipped) != a + 1:
            u, v = cycle[k], cycle[(k + 1) % size]
            bad.append((u, v) if u <= v else (v, u))
    bad.sort()
    return bad


def strip_matching_reference(adj: tuple[int, ...], comp: int) -> list[tuple[int, int]]:
    """A maximum matching of a forest or unicyclic vertex mask by
    leaf-stripping, an oracle for mu independent of the blossom algorithm:
    matching a leaf to its support is always optimal, so each round drops an
    isolated vertex or matches the lowest-index leaf to its support, and the
    leftover disjoint cycles take alternate edges along the library's cycle
    walk."""
    from corekit.graph import _components_in, _cycle_order

    pairs = []
    active = comp
    while active:
        drop = -1
        leaf = -1
        rest = active
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            d = (adj[v] & active).bit_count()
            if d == 0:
                drop = v
                break
            if d == 1 and leaf < 0:
                leaf = v
        if drop >= 0:
            active &= ~(1 << drop)
            continue
        if leaf < 0:
            break
        nb = adj[leaf] & active
        sup = (nb & -nb).bit_length() - 1
        pairs.append((leaf, sup))
        active &= ~(1 << leaf | 1 << sup)
    for cyc, _ in _components_in(adj, active):
        order = _cycle_order(adj, cyc)
        for k in range(0, len(order) - 1, 2):
            pairs.append((order[k], order[k + 1]))
    return pairs


def rooted_code_reference(adj: tuple[int, ...], root: int, parent: int) -> str:
    """The code of the tree rooted at root with parent cut off (-1 for none),
    as corpus built it before one memoised branch code served every caller:
    "()" for a leaf, else the sorted codes of the children, in parentheses."""
    kids = adj[root] & ~(1 << parent if parent >= 0 else 0)
    subs = sorted(rooted_code_reference(adj, u, root) for u in range(len(adj)) if kids >> u & 1)
    return "(" + "".join(subs) + ")"


def tree_centers_reference(adj, n: int) -> list[int]:
    """The centres of the tree with adjacency adj, as corpus._tree_centers
    found them before the leaf peel gave them: per-vertex degree counts,
    one leaf layer removed at a time until at most two vertices remain."""
    from corekit.graph import _bits

    degree = [adj[v].bit_count() for v in range(n)]
    alive = (1 << n) - 1
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive &= ~(1 << v)
            remaining -= 1
            for u in _bits(adj[v] & alive):
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return [v for v in range(n) if alive >> v & 1]


def tree_code_reference(g) -> str:
    """tree_code from rooted_code_reference: the least rooted code over the
    vertices of least eccentricity, found by a breadth-first search from each."""
    adj = g.adj
    ecc = []
    for s in range(g.n):
        seen, frontier, depth = 1 << s, 1 << s, 0
        while True:
            nxt = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~seen
            if not frontier:
                break
            seen |= frontier
            depth += 1
        ecc.append(depth)
    return min(rooted_code_reference(adj, c, -1) for c in range(g.n) if ecc[c] == min(ecc))


def unicyclic_code_reference(g) -> str:
    """unicyclic_code from rooted_code_reference: the cycle length and the
    least of all rotations and reflections of the pendant codes along the
    cycle, compared as sequences of codes."""
    adj = g.adj
    order = [g.index_of(lab) for lab in walk_cycle_reference(g)]
    on_cycle = set(order)
    codes = []
    for v in order:
        subs = sorted(
            rooted_code_reference(adj, u, v)
            for u in range(g.n)
            if adj[v] >> u & 1 and u not in on_cycle
        )
        codes.append("(" + "".join(subs) + ")")
    ell = len(codes)
    turns = (codes * 2, codes[::-1] * 2)
    return f"{ell}:" + "".join(min(d[s : s + ell] for d in turns for s in range(ell)))


def trees_reference(n: int):
    """The free trees on n vertices as enumerate_trees yielded them before it
    computed codes on int adjacency: a Graph per level sequence, deduped by
    tree_code, in level-sequence order."""
    from corekit import Graph, tree_code
    from corekit.corpus import _level_sequences

    seen = set()
    for seq in _level_sequences(n):
        if n == 1:
            g = Graph.from_edges(isolated=("v1",))
        else:
            parent_at = {seq[0]: 0}
            edges = []
            for i in range(1, n):
                edges.append((f"v{parent_at[seq[i] - 1] + 1}", f"v{i + 1}"))
                parent_at[seq[i]] = i
            g = Graph.from_edges(edges)
        code = tree_code(g)
        if code not in seen:
            seen.add(code)
            yield g


def unicyclic_reference(n: int):
    """The unicyclic graphs on n vertices as enumerate_unicyclic yielded them
    before it computed codes per candidate edge: each tree of trees_reference
    plus each non-edge in row-major order, built as a Graph and kept when its
    unicyclic_code is new."""
    from corekit import Graph, unicyclic_code

    seen = set()
    for t in trees_reference(n):
        tree_edges = t.edge_labels()
        for i in range(n):
            for j in range(i + 1, n):
                if t.adj[i] >> j & 1:
                    continue
                g = Graph.from_edges(tree_edges + [(t.labels[i], t.labels[j])])
                code = unicyclic_code(g)
                if code not in seen:
                    seen.add(code)
                    yield g


def walk_cycle_reference(g) -> tuple[str, ...]:
    """unicyclic.find_cycle as it walked the cycle itself before it reused
    the library's cycle walk: from the smallest label toward its
    smaller-labelled cycle neighbour, one step at a time."""
    from corekit import VertexSet
    from corekit.graph import _strip_to_cycles

    cyc = _strip_to_cycles(g.adj, (1 << g.n) - 1)[0]
    members = sorted(VertexSet(g, cyc).labels())
    start = g.index_of(members[0])
    first = min(
        (i for i in range(g.n) if cyc >> i & 1 and g.adj[start] >> i & 1),
        key=lambda i: g.labels[i],
    )
    order = [start, first]
    while True:
        prev, cur = order[-2], order[-1]
        nb = g.adj[cur] & cyc & ~(1 << prev)
        nxt = (nb & -nb).bit_length() - 1
        if nxt == start:
            break
        order.append(nxt)
    return tuple(g.labels[i] for i in order)


def labeled_trees(n: int):
    """Every labelled tree on v1..vn (n^(n-2) of them), in Pruefer-sequence
    order: the stream enumerate_trees gave with dedupe=False."""
    from corekit import Graph, prufer_decode

    if n == 1:
        yield Graph.from_edges(isolated=("v1",))
        return
    if n == 2:
        yield Graph.from_edges([("v1", "v2")])
        return
    seq = [0] * (n - 2)
    while True:
        yield prufer_decode(tuple(seq))
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


def _canonical_cycle_edge(g) -> tuple[str, str]:
    """The cycle edge with the lexicographically smallest sorted label pair.
    A label-only choice, so it is the same however the graph was built."""
    from corekit.graph import _cycle_order, _strip_to_cycles

    cyc = _strip_to_cycles(g.adj, (1 << g.n) - 1)[0]
    order = _cycle_order(g.adj, cyc)
    best = None
    for k in range(len(order)):
        a = g.labels[order[k]]
        b = g.labels[order[(k + 1) % len(order)]]
        pair = (a, b) if a <= b else (b, a)
        if best is None or pair < best:
            best = pair
    return best


def labeled_unicyclic(n: int):
    """Every labelled connected unicyclic graph on v1..vn exactly once: the
    stream enumerate_unicyclic gave with dedupe=False. A tree plus a
    non-edge builds each graph once per cycle edge, so a graph is kept only
    when the added edge is its canonical cycle edge."""
    from corekit import Graph

    for t in labeled_trees(n):
        tree_edges = t.edge_labels()
        for i in range(n):
            for j in range(i + 1, n):
                if t.adj[i] >> j & 1:
                    continue
                a, b = t.labels[i], t.labels[j]
                added = (a, b) if a <= b else (b, a)
                g = Graph.from_edges(tree_edges + [(a, b)])
                if _canonical_cycle_edge(g) == added:
                    yield g
