"""Critical difference machinery: d(X) = |X| - |N(X)|, its maxima over all
sets (d_c) and over independent sets (id_c), the witness structures, and ker
(the intersection of all critical independent sets).

d_c and ker come from one maximum matching of H, the bipartite half of the
double cover: V on the left, a copy V' on the right, and an edge u-v' for
each edge uv of G.

* d_c(G) = n - mu(H) (C.-Q. Zhang, SIAM J. Discrete Math. 1990).
* v lies in ker(G) exactly when some maximum matching of H leaves the left
  copy of v uncovered (after V. E. Levit and E. Mandrescu, "Vertices
  belonging to all critical sets of a graph", SIAM J. Discrete Math. 2012).
  Those are the left vertices reachable from the uncovered ones by
  alternating paths (Dulmage-Mendelsohn), so ker costs one matching plus
  one alternating breadth-first search, O(nm) at any size.

The subset sweep is the reference implementation that the tests and the
theorem checkers hold both rules against. It buys exactness with an
exponential bill, so it is capped by subset_n. It is bit-sliced: subset x of
the vertices is bit position x of a 2^n-bit int, one such plane P_v per
vertex v (bit x set when x contains v), and every per-subset quantity
(neighbourhood indicators, independence, the count n + d(X)) is a handful of
whole-int operations on the planes. The n planes take n x 2^n bits, 2.5 MB
at n = 20 and 4 GB at n = 30, so subset_n stays small.
"""

from __future__ import annotations

from typing import NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError
from .graph import Graph, VertexSet, _even_reach, _match, _union

__all__ = [
    "diff",
    "CriticalReport",
    "critical_difference_bruteforce",
    "critical_difference",
    "ker",
]


def diff(g: Graph, xs: VertexSet) -> int:
    """d(X) = |X| - |N(X)|. The empty set gives 0, so d_c >= 0 always."""
    g._own(xs)
    return len(xs) - len(g.neighborhood(xs))


class CriticalReport(NamedTuple):
    """The subset sweep's answer for one graph: d_c, id_c, the lowest set
    of maximum d, and ker."""

    d_c: int
    id_c: int
    witness_set: VertexSet
    ker: VertexSet


def _check_subset_n(n: int, budgets: Budgets) -> None:
    """Refuse a subset sweep of a graph on n > subset_n vertices."""
    if n > budgets.subset_n:
        raise BudgetExceededError(
            f"subset sweep limited to {budgets.subset_n} vertices, got {n}"
        )


def _planes(n: int) -> list[int]:
    """P_v for each vertex v: the 2^n-bit int whose bit x is set exactly when
    subset x contains v. P_{n-1} is the upper half of the positions, and
    P_v = P_{v+1} ^ (P_{v+1} >> 2^v): adding 2^v to x flips bit v + 1 of x
    exactly when bit v of x is set."""
    if not n:
        return []
    half = 1 << (n - 1)
    p = ((1 << half) - 1) << half
    out = [p]
    for v in range(n - 2, -1, -1):
        p ^= p >> (1 << v)
        out.append(p)
    out.reverse()
    return out


def _add(slices: list[int], b: int) -> None:
    """Add the 0/1 indicator b to the bit-sliced counter, in place: slice i
    holds bit i of every position's count."""
    for i, s in enumerate(slices):
        slices[i] = s ^ b
        b &= s
        if not b:
            return
    slices.append(b)


def _top(slices: list[int], cand: int) -> tuple[int, int]:
    """The largest count over the positions of cand, and the positions that
    attain it: the slices read from the top, keeping the candidates with a
    set bit whenever some have one."""
    value = 0
    for i in range(len(slices) - 1, -1, -1):
        hit = cand & slices[i]
        if hit:
            cand = hit
            value |= 1 << i
    return value, cand


def critical_difference_bruteforce(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> CriticalReport:
    """Sweep all 2^n subsets at once. Subset x is bit position x of a few
    2^n-bit ints: the planes P_v, the neighbourhood indicators N_u (the OR of
    P_w over the neighbours w of u) and a bit-sliced counter of the 2n
    indicators P_u and NOT N_u, which holds n + d(X) at each position. d_c
    and id_c are read off the counter over all positions and over the
    independent ones (no u with P_u & N_u set). The witness is the lowest
    position of maximum d, and ker is the set of vertices whose plane covers
    every critical independent position. The n planes and the six counter
    slices take 26 x 2^n bits at n = 20, about 3.4 MB."""
    n = g.n
    _check_subset_n(n, budgets)
    planes = _planes(n)
    full = (1 << (1 << n)) - 1
    slices: list[int] = []
    clash = 0
    for u, nbrs in enumerate(g.adj):
        near = _union(planes, nbrs)
        clash |= planes[u] & near
        _add(slices, planes[u])
        _add(slices, full ^ near)
    d_top, tied = _top(slices, full)
    id_top, crit = _top(slices, full ^ clash)
    ker_mask = 0
    for v, p in enumerate(planes):
        if not crit & ~p:
            ker_mask |= 1 << v
    return CriticalReport(
        d_c=d_top - n,
        id_c=id_top - n,
        witness_set=VertexSet(g, (tied & -tied).bit_length() - 1),
        ker=VertexSet(g, ker_mask),
    )


def _cover_matching(g: Graph) -> dict[int, int]:
    """Maximum matching of H, the bipartite half of the double cover: every
    vertex on the left, a copy on the right, u joined to v' for each edge uv.
    Returned as {right copy: left vertex}."""
    full = (1 << g.n) - 1
    return _match(g.adj, full, full)


def critical_difference(g: Graph) -> int:
    """d_c(G) = n - mu(H) (Zhang 1990)."""
    return g.n - len(_cover_matching(g))


def ker(g: Graph) -> VertexSet:
    """Intersection of all critical independent sets: the left vertices
    reachable from the left vertices a maximum matching of H leaves free,
    stepping to any right neighbour and back along its matching edge. Those
    are exactly the vertices some maximum matching of H leaves uncovered."""
    mate = _cover_matching(g)
    covered = 0
    for v in mate.values():
        covered |= 1 << v
    full = (1 << g.n) - 1
    return VertexSet(g, _even_reach(g.adj, mate, full & ~covered, full))
