"""Independence-number machinery: alpha, the maximum-independent-set family,
core (vertices in every MIS) and corona (vertices in some MIS).

alpha dispatches per connected component, on the kind that _branches gives
it, the one dispatch decision of this module; the component walk gives the
2-colouring too. A component with no more edges than vertices is split into
forest sides (_forest_sides), bipartite components get alpha = n - mu from
the package's one augmenting-path matcher (graph._match; Koenig's theorem),
and everything else goes through exact branch-and-bound from the empty set
under a size budget. The branch-and-bound (_bb_set) runs on an explicit
stack, so no recursion limit bounds how deep it branches.

The forest sides of a component C are C itself when C is a tree, and C - u
and C - v for a cycle edge uv when C is unicyclic. Every independent set of
C misses u or v, so a maximum independent set S of C that misses u is an
independent set of C - u of size alpha(C) >= alpha(C - u): it is maximum
there exactly when alpha(C - u) = alpha(C), and likewise for v. So Omega(C)
is the union of the families of the sides whose alpha is the largest, and
alpha(C) is that largest alpha.

core and corona never enumerate the MIS family: v is in core iff
alpha(G - v) = alpha(G) - 1, and v is in corona iff alpha(G - N[v]) =
alpha(G) - 1. Removing v or N[v] changes only v's component, so both are
decided per component, with the same dispatch:
- forest sides: one rerooting pass of the tree DP gives alpha(T - v) and
  alpha(T - N[v]) for every v of each tree T of a side at once. core(C) is
  the intersection, and corona(C) the union, of the cores and coronas of
  the sides that reach alpha(C);
- bipartite with more edges than vertices: one maximum matching of the two
  colour classes and one alternating search give the Gallai-Edmonds set
  D(C), the vertices that some maximum matching misses (Lovasz and
  Plummer, Matching Theory, 1986, ch. 3). alpha = n - mu by Koenig, so
  alpha(C - v) = alpha(C) - 1 exactly when mu(C - v) = mu(C), that is
  core = D(C). D(C) is independent on a bipartite graph, so N(D) is the set
  A(C) and corona = C - N(D(C));
- any other component: the branch-and-bound returns a maximum independent
  set S, and each further query returns a witness set. core lies inside
  every maximum independent set, so only the vertices of S are asked
  alpha(C - v), and a witness of size alpha(C) that avoids v cuts the
  candidates down to itself. Every witness W of size alpha(C) - 1 for
  C - N[v] makes W + v a maximum independent set, all of it in corona, so
  only the vertices outside S and outside every earlier such W are asked.
  That is at most |C| queries after S: corona's run first, and each W + v,
  being a maximum independent set, also cuts core's candidates down to
  itself.

The dispatch runs in two stages. The first (_alpha_active) gives alpha and
keeps what each alpha(C) came from: each forest side's tree DP, a bipartite
component's matching, a general one's S. The second (_drops) finishes core
and corona from those: a rerooting pass on each side that reaches alpha(C),
D(C) from the same matching, the witness queries after S. alpha() and the
KE gate alpha + mu = n of theorems' per-graph record run the first stage
alone; core(), corona(), core_and_corona() and the record's core and corona
run both.

enumerate_mis reads the family Omega(G) by exhaustive search alone, none of
the dispatch above: _mis_masks takes the lowest live vertex (dropping its
closed neighbourhood) or skips it, and a branch ends once the alpha of its
live vertices falls short of the sets it still needs. That alpha comes from
_alpha_memo, an exhaustive search on vertex masks memoised for one call.
_mis_family gives the family as masks in search order, for readers that
need no order, and enumerate_mis sorts it by labels (_sorted_sets). The
same search on the line graph lists the maximum matchings
(matching.enumerate_maximum_matchings).

ker is not derived from core here: critical.ker reads it off one matching of
the bipartite double cover (v is in ker iff some maximum matching of the
cover misses v's left copy; Levit and Mandrescu, SIAM J. Discrete Math.
2012), which on bipartite graphs agrees with core.
"""

from __future__ import annotations

import math

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError
from .graph import (
    Graph,
    VertexSet,
    _bits,
    _components_in,
    _edge_count,
    _even_reach,
    _match,
    _strip_to_cycles,
    _union,
)

__all__ = [
    "is_independent",
    "alpha",
    "enumerate_mis",
    "core",
    "corona",
    "core_and_corona",
    "is_alpha_critical_edge",
]


def _forest_dp(
    adj: tuple[int, ...], active: int, roots: int = -1
) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """The classic tree DP on the acyclic subgraph induced on the active
    mask, from one breadth-first walk of each tree rooted at its lowest
    vertex in the roots mask: by default its lowest vertex. A roots mask
    must meet every tree.

    Returns alpha of the forest, the walk order (every vertex after its
    parent, one tree after another) and three lists indexed by walk
    position i: the position of order[i]'s parent (-1 at a root), and the
    sizes of the largest independent sets of order[i]'s subtree that take
    it (take) or skip it (skip). Every list holds one entry per walked
    vertex, so a call costs O(|active|) however long adj is."""
    order: list[int] = []
    parent: list[int] = []
    seen = 0
    i = 0
    roots &= active
    while roots:
        rb = roots & -roots
        seen |= rb
        order.append(rb.bit_length() - 1)
        parent.append(-1)
        while i < len(order):
            nb = adj[order[i]] & active & ~seen
            seen |= nb
            while nb:  # inline, not _bits (1.4x per bit): each vertex of every tree DP
                b = nb & -nb
                nb ^= b
                order.append(b.bit_length() - 1)
                parent.append(i)
            i += 1
        roots &= ~seen
    take = [1] * len(order)
    skip = [0] * len(order)
    total = 0
    for i in reversed(range(len(order))):
        t, s = take[i], skip[i]
        p = parent[i]
        if p >= 0:
            take[p] += s
            skip[p] += t if t > s else s  # a comparison, not max(): a call per vertex
        else:
            total += t if t > s else s
    return total, order, parent, take, skip


def _forest_removals(dp) -> tuple[int, int]:
    """The masks of the vertices v of the forest F that the _forest_dp
    result dp walked with alpha(F - v) = alpha(F) - 1 (the core side) and
    with alpha(F - N_F[v]) = alpha(F) - 1 (the corona side).

    Rerooting: a second pass in walk order gives each vertex v with parent p
    the sizes of the largest independent sets of its up-tree (the tree minus
    v's subtree) that take p (ut) or skip p (us), and the larger one (ub):
        ut[v] = take[p] - skip[v] + us[p]
        us[v] = skip[p] - max(take[v], skip[v]) + ub[p]
    all three 0 at a root. Then alpha(T - v) = skip[v] + ub[v] and
    alpha(T - N[v]) = take[v] - 1 + us[v] on v's tree T, both from the one
    pass. Either removal lies in T, so it drops alpha(F) by one exactly when
    it drops alpha(T) by one. Like the DP's lists, us and ub are indexed by
    walk position."""
    _, order, parent, take, skip = dp
    up_skip = [0] * len(order)
    up_best = [0] * len(order)
    in_core = in_corona = 0
    drop = 0  # alpha of the current tree, less one
    for i, v in enumerate(order):
        t, s = take[i], skip[i]
        best = t if t > s else s
        p = parent[i]
        if p < 0:
            # a new tree starts; its vertices follow until the next root
            drop = best - 1
            us = ub = 0
        else:
            us = up_skip[i] = skip[p] - best + up_best[p]
            ub = take[p] - s + up_skip[p]
            if us > ub:
                ub = us
            up_best[i] = ub
        if s + ub == drop:
            in_core |= 1 << v
        if t - 1 + us == drop:
            in_corona |= 1 << v
    return in_core, in_corona


def _bb_set(adj: tuple[int, ...], active: int) -> int:
    """Mask of a maximum independent set of the subgraph induced on the
    active mask, by branch-and-bound from the empty set: isolated/leaf
    reductions, then a branch on a maximum-degree vertex, include first, so
    the first descent already reaches a maximal set.

    The search runs on an explicit stack of (active, chosen, size) nodes,
    so its depth is bounded by memory, not by the recursion limit. A node
    pushes its skip branch, then its include branch, so the include branch
    and all of its subtree pop first: the visiting order, and so the set
    returned, are those of the recursive search."""
    best = best_size = 0
    stack = [(active, 0, 0)]
    while stack:
        active, chosen, size = stack.pop()
        # reductions: a vertex of active degree <= 1 can always be taken. A
        # scan that finds none has also found v, the first vertex of maximum
        # degree, to branch on.
        while active:
            vdeg = 1
            rest = active
            while rest:  # inline, not _bits (1.4x per bit): one scan per search node
                b = rest & -rest
                u = b.bit_length() - 1
                rest ^= b
                d = (adj[u] & active).bit_count()
                if d <= 1:
                    break
                if d > vdeg:
                    v, vdeg = u, d
            else:  # no vertex to reduce
                break
            size += 1
            chosen |= b
            active &= ~(adj[u] | b)
        if not active:
            if size > best_size:
                best, best_size = chosen, size
            continue
        if size + active.bit_count() <= best_size:
            continue
        stack.append((active & ~(1 << v), chosen, size))
        stack.append((active & ~(adj[v] | 1 << v), chosen | 1 << v, size + 1))
    return best


def _branches(adj: tuple[int, ...], active: int):
    """(kind, comp, arg) for each component of the subgraph induced on the
    active mask: kind is "forests" (a tree or a unicyclic component; arg is
    its number of cycles, 0 or 1), "bipartite" (2-colourable with more edges
    than vertices; arg is the colour class that the component walk gives)
    or "general" (arg None). No cycle is stripped here: the consumers call
    _forest_sides, and a caller that asks only for the kinds
    (theorems._Facts.matching_read) pays for no strip."""
    for comp, left in _components_in(adj, active):
        extra = _edge_count(adj, comp) - comp.bit_count()
        if extra <= 0:
            yield "forests", comp, extra + 1
        elif left is not None:
            yield "bipartite", comp, left
        else:
            yield "general", comp, None


def _forest_sides(adj: tuple[int, ...], comp: int, cycles: int) -> tuple[int, ...]:
    """The masks of the forest sides of a component C with the given number
    of cycles (see the module docstring): C itself when it is a tree, and
    C - u and C - v when it is unicyclic, u its lowest cycle vertex and v
    the lowest cycle neighbour of u."""
    if not cycles:
        return (comp,)
    cyc = _strip_to_cycles(adj, comp)[0]
    u = cyc & -cyc
    nb = adj[u.bit_length() - 1] & cyc
    return comp & ~u, comp & ~(nb & -nb)


def _alpha_active(adj: tuple[int, ...], active: int, budgets: Budgets) -> tuple[int, list]:
    """alpha of the subgraph induced on the active mask, and the stages that
    _drops reads: one (kind, comp, alpha(C), kept) per component from
    _branches, kept being each forest side's _forest_dp result, a bipartite
    component's matching or a general one's first branch-and-bound set. The
    bb_n budget applies per general component, before any branching."""
    total = 0
    stages = []
    for kind, comp, arg in _branches(adj, active):
        if kind == "forests":
            kept = [_forest_dp(adj, side) for side in _forest_sides(adj, comp, arg)]
            a = max(dp[0] for dp in kept)
        elif kind == "bipartite":
            kept = _match(adj, arg, comp)
            # Koenig: alpha = n - mu on a bipartite component
            a = comp.bit_count() - len(kept)
        else:
            if comp.bit_count() > budgets.bb_n:
                raise BudgetExceededError(
                    f"alpha branch-and-bound limited to components of {budgets.bb_n} "
                    f"vertices, got {comp.bit_count()}"
                )
            kept = _bb_set(adj, comp)
            a = kept.bit_count()
        total += a
        stages.append((kind, comp, a, kept))
    return total, stages


def _alpha_memo(adj: tuple[int, ...], active: int, memo: dict[int, int]) -> int:
    """Exhaustive alpha on a vertex mask, for _mis_masks: the lowest live
    vertex is taken when it has at most one live neighbour (some maximum
    independent set holds it), and otherwise alpha is the larger of skipping
    it and taking it with its closed neighbourhood dropped."""
    got = memo.get(active)
    if got is not None:
        return got
    rest = active
    size = 0
    while rest:
        b = rest & -rest
        nb = adj[b.bit_length() - 1] & rest
        if nb & (nb - 1):
            skipped = _alpha_memo(adj, rest ^ b, memo)
            taken = 1 + _alpha_memo(adj, rest & ~(nb | b), memo)
            size += skipped if skipped > taken else taken  # not max(): a call per search node
            break
        size += 1
        rest &= ~(nb | b)
    memo[active] = size
    return size


def _drops(adj: tuple[int, ...], stages: list) -> tuple[int, int]:
    """From the stages of _alpha_active on the active mask, the masks of the
    vertices v with alpha(G[active] - v) = alpha(G[active]) - 1 (core) and
    with alpha(G[active] - N[v]) = alpha(G[active]) - 1 (corona).

    v and N[v] lie inside v's component C, so both tests read alpha(C - X) =
    alpha(C) - 1 on each component, by the branch the module docstring
    describes for its kind, from what the first stage kept. A general
    component asks corona's queries first, whose witnesses are maximum
    independent sets and so also cut core's candidates."""
    in_core = in_corona = 0
    for kind, comp, a, kept in stages:
        if kind == "forests":
            c, o = comp, 0
            for dp in kept:
                if dp[0] == a:
                    side_core, side_corona = _forest_removals(dp)
                    c &= side_core
                    o |= side_corona
            in_core |= c
            in_corona |= o
        elif kind == "bipartite":
            mate = dict(kept)
            free = comp
            for t, s in kept.items():
                mate[s] = t
                free &= ~(1 << t | 1 << s)
            d = _even_reach(adj, mate, free, comp)
            in_core |= d
            in_corona |= comp & ~_union(adj, d)
        else:
            # every witness W + v is a maximum independent set, so all of it
            # lies in corona, and core, which lies inside every maximum
            # independent set, lies inside it too: the kept first set and
            # each such witness cut core's candidates down to themselves
            known = cands = kept
            for v in _bits(comp & ~kept):
                if not known >> v & 1:
                    w = _bb_set(adj, comp & ~(adj[v] | 1 << v))
                    if w.bit_count() == a - 1:
                        w |= 1 << v
                        known |= w
                        cands &= w
            for v in _bits(kept):
                if cands >> v & 1:
                    w = _bb_set(adj, comp & ~(1 << v))
                    if w.bit_count() == a:
                        cands &= w
            in_core |= cands
            in_corona |= known
    return in_core, in_corona


# -- public operations --------------------------------------------------------


def is_independent(g: Graph, vs: VertexSet) -> bool:
    g._own(vs)
    return not _union(g.adj, vs.mask) & vs.mask


def alpha(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """Independence number. alpha of the 0-vertex graph is 0."""
    return _alpha_active(g.adj, (1 << g.n) - 1, budgets)[0]


def _check_mis_n(n: int, budgets: Budgets) -> None:
    """Refuse an MIS enumeration of a graph on n > enum_n vertices."""
    if n > budgets.enum_n:
        raise BudgetExceededError(f"MIS enumeration limited to {budgets.enum_n} vertices, got {n}")


def _mis_masks(adj: tuple[int, ...], full: int, limit: float) -> list[int]:
    """The masks of the maximum independent sets of the subgraph induced on
    the full mask, in search order, stopping once more than limit are found.

    The lowest live vertex is taken or skipped in turn, and a branch is cut
    as soon as its live vertices cannot hold the sets still needed. The
    target and every such bound come from _alpha_memo, one exhaustive
    search whose memo lives for this call only, so the family rests on
    exhaustive search alone."""
    memo: dict[int, int] = {}
    found: list[int] = []

    def rec(active: int, need: int, chosen: int) -> bool:
        """False once more than limit sets are found."""
        if need == 0:
            found.append(chosen)
            return len(found) <= limit
        if active.bit_count() < need or _alpha_memo(adj, active, memo) < need:
            return True
        b = active & -active
        v = b.bit_length() - 1
        return rec(active & ~(adj[v] | b), need - 1, chosen | b) and rec(active & ~b, need, chosen)

    rec(full, _alpha_memo(adj, full, memo), 0)
    return found


def _mis_family(g: Graph, budgets: Budgets) -> list[int]:
    """The masks of the family Omega(G), in search order, after the enum_n
    check: enumerate_mis unsorted, for readers that need no order."""
    _check_mis_n(g.n, budgets)
    return _mis_masks(g.adj, (1 << g.n) - 1, math.inf)


def _sorted_sets(g: Graph, masks) -> tuple[VertexSet, ...]:
    """The masks as vertex sets of g, sorted by their label tuples: the
    order in which a family is listed and its members are named."""
    sets = [VertexSet(g, mask) for mask in masks]
    sets.sort(key=VertexSet.labels)
    return tuple(sets)


def enumerate_mis(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[VertexSet, ...]:
    """The family Omega(G) of all maximum independent sets, sorted by their
    label tuples. The 0-vertex graph has Omega = (empty set,)."""
    return _sorted_sets(g, _mis_family(g, budgets))


def core(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """Vertices belonging to every maximum independent set:
    v is in core(G) iff alpha(G - v) = alpha(G) - 1."""
    return core_and_corona(g, budgets)[0]


def corona(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> VertexSet:
    """Vertices belonging to at least one maximum independent set:
    v is in corona(G) iff alpha(G - N[v]) = alpha(G) - 1."""
    return core_and_corona(g, budgets)[1]


def core_and_corona(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[VertexSet, VertexSet]:
    """(core(G), corona(G)) from one run of both stages."""
    c, o = _drops(g.adj, _alpha_active(g.adj, (1 << g.n) - 1, budgets)[1])
    return VertexSet(g, c), VertexSet(g, o)


def is_alpha_critical_edge(
    g: Graph, u: str, v: str, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """True iff deleting the edge raises alpha (necessarily by exactly 1)."""
    return alpha(g.delete_edge(u, v), budgets) == alpha(g, budgets) + 1
