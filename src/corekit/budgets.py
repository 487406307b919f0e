"""Size budgets for the exponential code paths.

Every exact-but-exponential routine takes a Budgets value and raises
BudgetExceededError instead of silently grinding. Fast paths for trees,
unicyclic graphs and bipartite graphs are polynomial and unbudgeted, and so
is maximum matching on every graph (Edmonds' blossom algorithm), so there is
no matching-size budget: only the enumeration of maximum matchings is
bounded, by enum_n and matching_limit.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Budgets", "DEFAULT_BUDGETS"]


class Budgets(NamedTuple):
    # max n for family enumeration (maximum independent sets, maximum matchings)
    enum_n: int = 20
    # max n for the 2^n subset sweep (critical_difference_bruteforce), whose
    # bit-sliced planes take n x 2^n bits: 2.5 MB at n = 20, 4 GB at n = 30
    subset_n: int = 20
    # max n for branch-and-bound alpha on general graphs
    bb_n: int = 40
    # max number of maximum matchings a single enumeration may produce
    matching_limit: int = 10**6


DEFAULT_BUDGETS = Budgets()
