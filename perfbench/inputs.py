"""Seeded inputs for the analyze-large workload.

The generator is the benchmark's own and uses only the standard library, so
a change to corekit's corpus module cannot change what the benchmark feeds
the program. Each input targets one branch of the `analyze` dispatch and
carries the facts its construction guarantees; the correctness gate checks
the program's answers against them.

Labels are shuffled and edge lines are written in random order, so vertex
index order inside the program does not follow the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Input:
    """One generated edge list and what its construction guarantees.

    `kind` and `bipartite` are what corekit's `classify_shape` must report;
    `facts` maps analyze record keys (alpha, mu, ke, ...) to their known
    values; `cycle_len` is the length of the unique cycle, if any.
    """

    name: str
    text: str
    n: int
    m: int
    kind: str
    bipartite: bool
    facts: dict = field(default_factory=dict)
    cycle_len: int | None = None


class _Builder:
    """Edges on integer vertices, rendered with shuffled labels."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0
        self.edges: list[tuple[int, int]] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def random_tree(self, size: int) -> list[int]:
        """A random recursive tree on `size` new vertices; returns them,
        root first."""
        vs = [self.vertex()]
        for _ in range(size - 1):
            v = self.vertex()
            self.edge(self.rng.choice(vs), v)
            vs.append(v)
        return vs

    def corona_tree(self, size: int) -> int:
        """A random tree on `size` vertices with a pendant leaf on each, which
        has a perfect matching and alpha equal to `size`. Returns its root,
        which is not a leaf, so it may attach anywhere."""
        vs = self.random_tree(size)
        for v in vs:
            self.edge(v, self.vertex())
        return vs[0]

    def text(self) -> str:
        names = list(range(self.n))
        self.rng.shuffle(names)
        lines = [f"v{names[u]} v{names[v]}" for u, v in self.edges]
        self.rng.shuffle(lines)
        return "\n".join(lines) + "\n"


def _tree_mu(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching of a tree: repeatedly match a leaf to its support."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    matched = 0
    leaves = [v for v in range(n) if len(nbrs[v]) == 1]
    alive = [True] * n
    while leaves:
        v = leaves.pop()
        if not alive[v] or len(nbrs[v]) != 1:
            continue
        (s,) = nbrs[v]
        matched += 1
        for x in (v, s):
            alive[x] = False
            for y in nbrs[x]:
                nbrs[y].discard(x)
                if alive[y] and len(nbrs[y]) == 1:
                    leaves.append(y)
            nbrs[x] = set()
    return matched


def _finish(b: _Builder, name: str, kind: str, bipartite: bool, **extra) -> Input:
    return Input(
        name=name, text=b.text(), n=b.n, m=len(b.edges), kind=kind,
        bipartite=bipartite, **extra,
    )


def tree(rng: random.Random, n: int = 600) -> Input:
    """Random tree: the linear tree DP and the forest matching."""
    b = _Builder(rng)
    b.random_tree(n)
    mu = _tree_mu(b.n, b.edges)
    return _finish(b, "tree", "tree", True,
                   facts={"alpha": n - mu, "mu": mu, "ke": True})


def unicyclic_nonke(rng: random.Random, cycle: int = 21, trees: int = 30,
                    tree_size: int = 6) -> Input:
    """Odd cycle plus pendant trees with perfect matchings. mu leaves one
    cycle vertex uncovered and alpha + mu = n - 1, so the graph is not KE;
    ker dispatches to core."""
    b = _Builder(rng)
    ring = [b.vertex() for _ in range(cycle)]
    for i in range(cycle):
        b.edge(ring[i], ring[(i + 1) % cycle])
    for _ in range(trees):
        b.edge(rng.choice(ring), b.corona_tree(tree_size))
    mu = (b.n - 1) // 2
    return _finish(b, "unicyclic-nonke", "unicyclic", False,
                   facts={"alpha": b.n - 1 - mu, "mu": mu, "ke": False},
                   cycle_len=cycle)


def bipartite(rng: random.Random, side: int = 100, extra: int = 100) -> Input:
    """Connected bipartite graph with cycles: a random spanning tree whose
    edges all cross the two sides, plus `extra` random cross edges."""
    b = _Builder(rng)
    left = [b.vertex() for _ in range(side)]
    right = [b.vertex() for _ in range(side)]
    have = {(left[0], right[0])}
    b.edge(left[0], right[0])
    placed = ([left[0]], [right[0]])
    rest = [(0, v) for v in left[1:]] + [(1, v) for v in right[1:]]
    rng.shuffle(rest)
    for s, v in rest:
        u = rng.choice(placed[1 - s])
        have.add((min(u, v), max(u, v)))
        b.edge(u, v)
        placed[s].append(v)
    while len(have) < 2 * side - 1 + extra:
        u, v = rng.choice(left), rng.choice(right)
        if (u, v) not in have:
            have.add((u, v))
            b.edge(u, v)
    return _finish(b, "bipartite", "other", True, facts={"ke": True})


def _random_connected(rng: random.Random, n: int, extra: int) -> _Builder:
    """Random tree plus a triangle on its first three vertices plus `extra`
    further random edges: connected, non-bipartite, with cycles."""
    b = _Builder(rng)
    vs = b.random_tree(n)
    have = {(min(u, v), max(u, v)) for u, v in b.edges}
    for u, v in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])):
        if (u, v) not in have:
            have.add((u, v))
            b.edge(u, v)
    added = 0
    while added < extra:
        u, v = sorted(rng.sample(vs, 2))
        if (u, v) not in have:
            have.add((u, v))
            b.edge(u, v)
            added += 1
    return b


def general_small(rng: random.Random, n: int = 20, extra: int = 10) -> Input:
    """General non-bipartite graph at the subset-sweep limit: ker runs the
    2^20 sweep."""
    return _finish(_random_connected(rng, n, extra), "general-20", "other", False)


def unicyclic_ke(rng: random.Random, cycle: int = 21, trees: int = 30,
                 tree_size: int = 6) -> Input:
    """Odd cycle with a pendant leaf on every cycle vertex, plus pendant trees
    with perfect matchings. It has a perfect matching and alpha = n/2, so it
    is KE with an odd cycle: ker has no fast path and the sweep is over
    budget. Refused today (exit 3)."""
    b = _Builder(rng)
    ring = [b.vertex() for _ in range(cycle)]
    for i in range(cycle):
        b.edge(ring[i], ring[(i + 1) % cycle])
        b.edge(ring[i], b.vertex())
    for _ in range(trees):
        b.edge(rng.choice(ring), b.corona_tree(tree_size))
    half = b.n // 2
    return _finish(b, "unicyclic-ke", "unicyclic", False,
                   facts={"alpha": half, "mu": half, "ke": True},
                   cycle_len=cycle)


def general_sparse(rng: random.Random, n: int = 40, extra: int = 8) -> Input:
    """General sparse non-bipartite graph above the exact-matching limit.
    Refused today (exit 3) on the mu budget."""
    return _finish(_random_connected(rng, n, extra), "general-40", "other", False)


GENERATORS = (tree, unicyclic_nonke, bipartite, general_small, unicyclic_ke,
              general_sparse)


def analyze_inputs(seed: int) -> list[Input]:
    """The analyze-large inputs for one seed, in run order."""
    return [gen(random.Random(f"perfbench:{gen.__name__}:{seed}"))
            for gen in GENERATORS]
