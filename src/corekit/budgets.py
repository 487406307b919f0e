"""Size budgets for the exponential code paths.

Every exact-but-exponential routine takes a Budgets value and raises
BudgetExceededError instead of silently grinding. Fast paths for trees,
unicyclic graphs and bipartite matching are polynomial and unbudgeted.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    # max n for family enumeration (maximum independent sets, maximum matchings)
    enum_n: int = 20
    # max n for the 2^n subset sweep (critical_difference_bruteforce)
    subset_n: int = 20
    # max n for branch-and-bound alpha on general graphs
    bb_n: int = 40
    # max n for exact maximum matching on general graphs
    matching_n: int = 24
    # max number of maximum matchings a single enumeration may produce
    matching_limit: int = 10**6


DEFAULT_BUDGETS = Budgets()
