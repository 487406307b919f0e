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
exponential bill, so it is capped by subset_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceededError
from .graph import Graph, VertexSet, _even_reach, _match

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


@dataclass(frozen=True)
class CriticalReport:
    """Everything the subset sweep knows about one graph."""

    d_c: int
    id_c: int
    witness_set: VertexSet
    ker: VertexSet
    critical_independent_sets: tuple[VertexSet, ...]


def critical_difference_bruteforce(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> CriticalReport:
    """Sweep all 2^n subsets. N(X) is built incrementally: dropping the
    lowest bit of X gives a previously visited subset."""
    n = g.n
    if n > budgets.subset_n:
        raise BudgetExceededError(
            f"subset sweep limited to {budgets.subset_n} vertices, got {n}"
        )
    adj = g.adj
    size = 1 << n
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
    ker_mask = (1 << n) - 1 if n else 0
    crit: list[int] = []
    for x in range(size):
        if nbh[x] & x:
            continue
        if x.bit_count() - nbh[x].bit_count() == id_c:
            crit.append(x)
            ker_mask &= x
    return CriticalReport(
        d_c=d_c,
        id_c=id_c,
        witness_set=VertexSet(g, witness),
        ker=VertexSet(g, ker_mask),
        critical_independent_sets=tuple(VertexSet(g, x) for x in crit),
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
