"""Executable checkers for the theorem catalog, corpus sweeps, and the two
open-problem searches.

Every checker decides applicability from the statement's hypotheses and then
tests the conclusion by direct computation on primitives: enumerated maximum
independent sets, alpha queries, augmenting-path matchings, and the subset
sweep. No checker ever shortcuts through another catalog statement; in
particular ker is always recomputed by the subset sweep here, never through
the matching-based ker() (which rests on results of the same kind as the
statements under test), and core/corona of pendant trees come from alpha
queries on the tree, not from the structural_* functions.

The checkers read a graph's primitives from a per-graph record (_Facts):
shape, alpha, mu, core, corona, the family of maximum independent sets, the
subset-sweep report, the cycle and the unicyclic decomposition. Each value
is the result of the same primitive call a checker would make on its own,
made the first time a checker asks for it and then kept for that graph
only. The record caches primitives, never a conclusion, so the rule above
holds unchanged: ker comes from the sweep, core and corona from alpha
queries or from the enumerated family, pendant-tree values from calls on
each pendant tree. The family rests on exhaustive search only
(independence._alpha_memo), never on the forest, unicyclic, Koenig or
branch-and-bound paths of alpha, core and corona. sweep builds one record
per graph and runs the chosen checkers against it in the given order, so
each graph pays for one subset sweep, one alpha and one mu however many
checkers read them.

On a bipartite component with more edges than vertices, core() and corona()
read their answer off one maximum matching (core = D(G) and corona =
V - A(G), the Gallai-Edmonds sets), so N(core) = V - corona and
|core| + |corona| = 2 alpha hold there by construction. The checkers of
statements of that kind (TH1, TH2B, TH4A and TH4B) therefore take core and
corona from the enumerated family whenever the graph has such a component,
as TH11 and TH12 always do; on every other graph they read core() and
corona() like the rest.

A report's witness payload is re-verified under its defining predicate before
it is returned (matchings are rebuilt through the validating constructor and
checked for saturation), so a report never carries an unchecked certificate.
"""

from __future__ import annotations

import os
import time
from collections import deque
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .critical import critical_difference_bruteforce, diff
from .errors import DomainError
from .graph import Graph, VertexSet, classify_shape, parse_edge_list, serialize
from .independence import _alpha_active, _matching_class, core, corona, enumerate_mis, is_independent
from .matching import enumerate_maximum_matchings, mu, saturating_matching
from .unicyclic import _non_critical_cycle_edges, _pull, decompose, find_cycle

__all__ = [
    "THEOREM_IDS",
    "TheoremReport",
    "check",
    "SweepSummary",
    "sweep",
    "Problem1Report",
    "search_problem1",
    "classify_sum_defect",
    "sum_defect_histogram",
]

THEOREM_IDS = (
    "LEM1A",
    "LEM1B",
    "LEM2",
    "TH11",
    "TH1",
    "TH2A",
    "TH2B",
    "TH3",
    "TH4A",
    "TH4B",
    "TH12",
    "MAIN",
    "KERCORE",
    "ZHANG",
)


class TheoremReport(NamedTuple):
    """Outcome of one checker on one graph.

    holds is None exactly when applicable is False; witness carries the
    computed quantities demonstrating the conclusion (rendered canonically),
    counterexample the offending objects when holds is False.
    """

    theorem_id: str
    graph_id: str
    applicable: bool
    holds: bool | None
    witness: tuple[tuple[str, object], ...] = ()
    counterexample: tuple[tuple[str, object], ...] = ()

    def witness_dict(self) -> dict[str, object]:
        return dict(self.witness)

    def counterexample_dict(self) -> dict[str, object]:
        return dict(self.counterexample)


class _Facts:
    """The primitives of one graph, each computed on first use and kept.

    Every property calls the module-level primitive when it is first read,
    through this module's global name, so a wrapper installed on that name
    sees the call. A primitive that raises leaves its value unset."""

    def __init__(self, g: Graph, budgets: Budgets):
        self.g = g
        self.budgets = budgets

    @cached_property
    def shape(self):
        return classify_shape(self.g)

    @cached_property
    def unicyclic(self) -> bool:
        return self.shape.connected and self.shape.kind == "unicyclic"

    @cached_property
    def alpha(self) -> int:
        return _alpha_active(self.g.adj, (1 << self.g.n) - 1, self.budgets)

    @cached_property
    def mu(self) -> int:
        return mu(self.g)

    @cached_property
    def core(self) -> VertexSet:
        return core(self.g, self.budgets)

    @cached_property
    def corona(self) -> VertexSet:
        return corona(self.g, self.budgets)

    @cached_property
    def mis_family(self) -> tuple[VertexSet, ...]:
        return enumerate_mis(self.g, self.budgets)

    @cached_property
    def mis_core(self) -> VertexSet:
        """core as the intersection of the MIS family."""
        inter = (1 << self.g.n) - 1
        for s in self.mis_family:
            inter &= s.mask
        return VertexSet(self.g, inter)

    @cached_property
    def mis_corona(self) -> VertexSet:
        """corona as the union of the MIS family."""
        union = 0
        for s in self.mis_family:
            union |= s.mask
        return VertexSet(self.g, union)

    @cached_property
    def matching_read(self) -> bool:
        """Whether core() and corona() read some component of the graph off
        one maximum matching, by the test independence._alpha_drops makes:
        independence._matching_class (bipartite, more edges than vertices)."""
        return any(_matching_class(self.g.adj, c) is not None for c in self.g.components())

    @cached_property
    def ke_core(self) -> VertexSet:
        """core for the checkers of statements about KE graphs (TH1, TH2B,
        TH4A, TH4B): from the MIS family where core() reads a component off
        a matching, since that rests on statements of the same kind."""
        return self.mis_core if self.matching_read else self.core

    @cached_property
    def ke_corona(self) -> VertexSet:
        """corona for the same checkers, by the same rule as ke_core."""
        return self.mis_corona if self.matching_read else self.corona

    @cached_property
    def subset_sweep(self):
        return critical_difference_bruteforce(self.g, self.budgets)

    @cached_property
    def cycle(self) -> tuple[str, ...]:
        return find_cycle(self.g)

    @cached_property
    def decomposition(self):
        return decompose(self.g)


def _fmt(vs: VertexSet) -> str:
    return "{" + ", ".join(vs.labels()) + "}"


def _fmt_pairs(pairs: Iterable[tuple[str, str]]) -> str:
    return "[" + ", ".join(f"{a}-{b}" for a, b in pairs) + "]"


def _report(tid, gid, applicable, holds=None, witness=(), counterexample=()):
    return TheoremReport(
        theorem_id=tid,
        graph_id=gid,
        applicable=applicable,
        holds=holds,
        witness=tuple(witness),
        counterexample=tuple(counterexample),
    )


def _not_ke(tid: str, f: _Facts, gid: str) -> TheoremReport | None:
    """The inapplicable report of a statement about KE graphs, or None when
    alpha + mu = n."""
    if f.alpha + f.mu != f.g.n:
        return _report(tid, gid, False, witness=[("alpha_plus_mu", f.alpha + f.mu)])
    return None


def _not_unicyclic_non_ke(tid: str, f: _Facts, gid: str) -> TheoremReport | None:
    """The inapplicable report of a statement about connected unicyclic
    graphs with alpha + mu = n - 1, or None when the graph is one."""
    if not f.unicyclic:
        return _report(tid, gid, False)
    if f.alpha + f.mu == f.g.n:
        return _report(tid, gid, False, witness=[("alpha_plus_mu", f.alpha + f.mu)])
    return None


def _saturates(m, sources: VertexSet) -> bool:
    return sources.mask & ~m.vertices().mask == 0


# -- individual checkers ------------------------------------------------------


def _check_lem1a(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic non-KE: core(G) and the closed neighbourhood of the cycle
    are disjoint."""
    skip = _not_unicyclic_non_ke("LEM1A", f, gid)
    if skip:
        return skip
    g = f.g
    closed = g.neighborhood(g.set_of(f.cycle), closed=True)
    c = f.core
    overlap = c & closed
    wit = [("core", _fmt(c)), ("closed_cycle_neighborhood", _fmt(closed))]
    if overlap:
        return _report(
            "LEM1A", gid, True, False, wit, [("overlap", _fmt(overlap))]
        )
    return _report("LEM1A", gid, True, True, wit)


def _check_lem1b(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic non-KE: some matching carries N(core(G)) into core(G)."""
    skip = _not_unicyclic_non_ke("LEM1B", f, gid)
    if skip:
        return skip
    c = f.core
    nc = f.g.neighborhood(c)
    match = saturating_matching(f.g, nc, c)
    wit = [("core", _fmt(c)), ("n_core", _fmt(nc))]
    if match is None:
        return _report("LEM1B", gid, True, False, wit, [("unsaturated_from", _fmt(nc))])
    assert _saturates(match, nc)
    wit.append(("matching", _fmt_pairs(match.edge_labels())))
    return _report("LEM1B", gid, True, True, wit)


def _check_lem2(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic: n-1 <= alpha+mu <= n, with equality at n-1 exactly when
    every cycle edge is alpha-critical (checked in both directions)."""
    if not f.unicyclic:
        return _report("LEM2", gid, False)
    g = f.g
    a, m = f.alpha, f.mu
    total = a + m
    non_critical = _non_critical_cycle_edges(g, f.cycle, a, f.budgets)
    bounds_ok = g.n - 1 <= total <= g.n
    iff_ok = (total == g.n - 1) == (not non_critical)
    wit = [
        ("alpha", a),
        ("mu", m),
        ("alpha_plus_mu", total),
        ("non_critical_cycle_edges", _fmt_pairs(non_critical)),
    ]
    if bounds_ok and iff_ok:
        return _report("LEM2", gid, True, True, wit)
    return _report(
        "LEM2", gid, True, False, wit,
        [("bounds_ok", bounds_ok), ("iff_ok", iff_ok)],
    )


def _check_th11(f: _Facts, gid: str) -> TheoremReport:
    """Every graph: for each maximum independent set S there is a matching
    from S - core(G) into corona(G) - S."""
    family = f.mis_family
    inter = f.mis_core
    union = f.mis_corona
    checked = 0
    for s in family:
        sources = s - inter
        targets = union - s
        match = saturating_matching(f.g, sources, targets)
        if match is None:
            return _report(
                "TH11", gid, True, False,
                [("mis_count", len(family))],
                [("S", _fmt(s)), ("sources", _fmt(sources)), ("targets", _fmt(targets))],
            )
        assert _saturates(match, sources)
        checked += 1
    return _report(
        "TH11", gid, True, True,
        [("mis_count", len(family)), ("matchings_found", checked)],
    )


def _check_th1(f: _Facts, gid: str) -> TheoremReport:
    """KE graphs: every maximum matching matches N(core(G)) into core(G)."""
    skip = _not_ke("TH1", f, gid)
    if skip:
        return skip
    c = f.ke_core
    nc = f.g.neighborhood(c)
    matchings = enumerate_maximum_matchings(f.g, f.budgets)
    nc_labels = nc.labels()
    for match in matchings:
        for v in nc_labels:
            partner = match.matched_to(v)
            if partner is None or partner not in c:
                return _report(
                    "TH1", gid, True, False,
                    [("core", _fmt(c)), ("n_core", _fmt(nc))],
                    [
                        ("matching", _fmt_pairs(match.edge_labels())),
                        ("vertex", v),
                        ("matched_to", "-" if partner is None else partner),
                    ],
                )
    return _report(
        "TH1", gid, True, True,
        [
            ("core", _fmt(c)),
            ("n_core", _fmt(nc)),
            ("maximum_matchings", len(matchings)),
        ],
    )


def _check_th2a(f: _Facts, gid: str) -> TheoremReport:
    """Every graph: ker(G) is a critical independent set contained in
    core(G). ker is recomputed by the subset sweep here."""
    g = f.g
    rep = f.subset_sweep
    k = rep.ker
    c = f.core
    independent = is_independent(g, k)
    critical = diff(g, k) == rep.id_c
    contained = k <= c
    wit = [
        ("ker", _fmt(k)),
        ("core", _fmt(c)),
        ("d_ker", diff(g, k)),
        ("id_c", rep.id_c),
    ]
    if independent and critical and contained:
        return _report("TH2A", gid, True, True, wit)
    return _report(
        "TH2A", gid, True, False, wit,
        [("independent", independent), ("critical", critical), ("contained", contained)],
    )


def _check_th2b(f: _Facts, gid: str) -> TheoremReport:
    """Bipartite graphs: ker(G) = core(G), both recomputed independently."""
    if not f.shape.bipartite:
        return _report("TH2B", gid, False)
    k = f.subset_sweep.ker
    c = f.ke_core
    wit = [("ker", _fmt(k)), ("core", _fmt(c))]
    if k == c:
        return _report("TH2B", gid, True, True, wit)
    return _report("TH2B", gid, True, False, wit, [("difference", _fmt((k | c) - (k & c)))])


def _check_th3(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic non-KE: corona(G) and N(core(G)) cover V(G), and corona is
    the cycle plus the pendant-tree coronas."""
    skip = _not_unicyclic_non_ke("TH3", f, gid)
    if skip:
        return skip
    g = f.g
    c = f.core
    cor = f.corona
    covered = cor | g.neighborhood(c)
    dec = f.decomposition
    assembled = dec.cycle_set.mask
    for pt in dec.pendant_trees:
        assembled |= _pull(g, corona(pt.tree, f.budgets))
    assembled_set = VertexSet(g, assembled)
    eq_cover = covered == g.full_set()
    eq_parts = assembled_set == cor
    wit = [
        ("corona", _fmt(cor)),
        ("n_core", _fmt(g.neighborhood(c))),
        ("cycle_plus_pendant_coronas", _fmt(assembled_set)),
    ]
    if eq_cover and eq_parts:
        return _report("TH3", gid, True, True, wit)
    return _report(
        "TH3", gid, True, False, wit,
        [("cover_equals_v", eq_cover), ("corona_decomposes", eq_parts)],
    )


def _check_th4a(f: _Facts, gid: str) -> TheoremReport:
    """KE graphs: N(core(G)) = V(G) - corona(G)."""
    skip = _not_ke("TH4A", f, gid)
    if skip:
        return skip
    nc = f.g.neighborhood(f.ke_core)
    rest = f.ke_corona.complement()
    wit = [("n_core", _fmt(nc)), ("v_minus_corona", _fmt(rest))]
    if nc == rest:
        return _report("TH4A", gid, True, True, wit)
    return _report("TH4A", gid, True, False, wit, [("difference", _fmt((nc | rest) - (nc & rest)))])


def _check_th4b(f: _Facts, gid: str) -> TheoremReport:
    """KE graphs: |corona(G)| + |core(G)| = 2 alpha(G)."""
    skip = _not_ke("TH4B", f, gid)
    if skip:
        return skip
    a = f.alpha
    c = f.ke_core
    cor = f.ke_corona
    total = len(cor) + len(c)
    wit = [("core_size", len(c)), ("corona_size", len(cor)), ("sum", total), ("two_alpha", 2 * a)]
    if total == 2 * a:
        return _report("TH4B", gid, True, True, wit)
    return _report("TH4B", gid, True, False, wit, [("sum", total), ("two_alpha", 2 * a)])


def _check_th12(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic non-KE: pendant maximum independent sets extend to maximum
    independent sets of G, restrict back onto the pendant trees, and core(G)
    is the union of the pendant cores."""
    skip = _not_unicyclic_non_ke("TH12", f, gid)
    if skip:
        return skip
    g = f.g
    family = f.mis_family
    fam_labels = [set(s.labels()) for s in family]
    dec = f.decomposition
    extends = True
    restricts = True
    bad = []
    for pt in dec.pendant_trees:
        tree_family = [set(w.labels()) for w in enumerate_mis(pt.tree, f.budgets)]
        for w in tree_family:
            if not any(w <= s for s in fam_labels):
                extends = False
                bad.append(("unextendable", f"{pt.root}:{sorted(w)}"))
        tv = set(pt.vertices.labels())
        for s in fam_labels:
            if s & tv not in tree_family:
                restricts = False
                bad.append(("bad_restriction", f"{pt.root}:{sorted(s & tv)}"))
    inter = f.mis_core
    union_core = 0
    for pt in dec.pendant_trees:
        union_core |= _pull(g, core(pt.tree, f.budgets))
    cores_match = VertexSet(g, union_core) == inter
    if not cores_match:
        bad.append(("core_union", _fmt(VertexSet(g, union_core))))
    wit = [
        ("core", _fmt(inter)),
        ("pendant_core_union", _fmt(VertexSet(g, union_core))),
        ("pendant_trees", len(dec.pendant_trees)),
        ("mis_count", len(family)),
    ]
    if extends and restricts and cores_match:
        return _report("TH12", gid, True, True, wit)
    return _report("TH12", gid, True, False, wit, bad)


def _check_main(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic: 2 alpha <= |corona| + |core| <= 2 alpha + 1, and the sum
    hits 2 alpha + 1 exactly for the non-KE case. The sum is reported even
    when the graph is not unicyclic, since the inapplicable value is itself
    informative."""
    a, m = f.alpha, f.mu
    total = len(f.corona) + len(f.core)
    defect = total - 2 * a
    wit = [
        ("sum", total),
        ("two_alpha", 2 * a),
        ("sum_defect", defect),
        ("alpha_plus_mu", a + m),
    ]
    if not f.unicyclic:
        return _report("MAIN", gid, False, witness=wit)
    bounds_ok = 0 <= defect <= 1
    iff_ok = (a + m == f.g.n - 1) == (defect == 1)
    if bounds_ok and iff_ok:
        return _report("MAIN", gid, True, True, wit)
    return _report(
        "MAIN", gid, True, False, wit,
        [("bounds_ok", bounds_ok), ("iff_ok", iff_ok)],
    )


def _check_kercore(f: _Facts, gid: str) -> TheoremReport:
    """Unicyclic non-KE: ker(G) = union of pendant kers = core(G), with every
    ker recomputed by the subset sweep."""
    skip = _not_unicyclic_non_ke("KERCORE", f, gid)
    if skip:
        return skip
    g = f.g
    k = f.subset_sweep.ker
    c = f.core
    union = 0
    for pt in f.decomposition.pendant_trees:
        union |= _pull(g, critical_difference_bruteforce(pt.tree, f.budgets).ker)
    union_set = VertexSet(g, union)
    wit = [("ker", _fmt(k)), ("pendant_ker_union", _fmt(union_set)), ("core", _fmt(c))]
    if k == union_set and k == c:
        return _report("KERCORE", gid, True, True, wit)
    return _report(
        "KERCORE", gid, True, False, wit,
        [("ker_eq_union", k == union_set), ("ker_eq_core", k == c)],
    )


def _check_zhang(f: _Facts, gid: str) -> TheoremReport:
    """Every graph: d_c = id_c."""
    rep = f.subset_sweep
    wit = [("d_c", rep.d_c), ("id_c", rep.id_c), ("witness_set", _fmt(rep.witness_set))]
    if rep.d_c == rep.id_c:
        return _report("ZHANG", gid, True, True, wit)
    return _report("ZHANG", gid, True, False, wit, [("d_c", rep.d_c), ("id_c", rep.id_c)])


_CHECKERS: dict[str, Callable[[_Facts, str], TheoremReport]] = {
    "LEM1A": _check_lem1a,
    "LEM1B": _check_lem1b,
    "LEM2": _check_lem2,
    "TH11": _check_th11,
    "TH1": _check_th1,
    "TH2A": _check_th2a,
    "TH2B": _check_th2b,
    "TH3": _check_th3,
    "TH4A": _check_th4a,
    "TH4B": _check_th4b,
    "TH12": _check_th12,
    "MAIN": _check_main,
    "KERCORE": _check_kercore,
    "ZHANG": _check_zhang,
}


def check(
    theorem_id: str,
    g: Graph,
    graph_id: str = "?",
    budgets: Budgets = DEFAULT_BUDGETS,
) -> TheoremReport:
    """Run one catalog checker. Raises DomainError for an unknown id and
    BudgetExceededError when the graph exceeds the invoked sub-operations.

    Within this module g may also be the record of a graph, whose computed
    values (and budgets) the call then shares with the other checkers."""
    checker = _CHECKERS.get(theorem_id)
    if checker is None:
        raise DomainError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    return checker(g if isinstance(g, _Facts) else _Facts(g, budgets), graph_id)


# -- sweeps --------------------------------------------------------------------


class SweepSummary(NamedTuple):
    family: str
    theorem_ids: tuple[str, ...]
    graphs_tested: int
    checks_run: int
    checks_applicable: int
    failures: tuple[tuple[str, TheoremReport], ...]
    truncated: bool
    truncation_reason: str | None
    elapsed: float

    def all_hold(self) -> bool:
        return not self.failures


def _known_ids(theorem_ids: Iterable[str]) -> tuple[str, ...]:
    tids = tuple(theorem_ids)
    for tid in tids:
        if tid not in _CHECKERS:
            raise DomainError(f"unknown theorem id {tid!r}")
    return tids


def _check_graph(g: Graph, gid: str, tids: tuple[str, ...], budgets: Budgets) -> list[TheoremReport]:
    """The reports of the given checkers on one graph, in the given order,
    all reading one record. Each goes through check, so a wrapper on check
    sees one call per theorem."""
    f = _Facts(g, budgets)
    return [check(tid, f, gid) for tid in tids]


def _compact(reports: list[TheoremReport]) -> tuple[TheoremReport | bool, ...]:
    """A graph's reports in the form _summarize reads: each failing report
    in full, every other report as its applicable flag."""
    return tuple(
        rep if rep.applicable and rep.holds is False else rep.applicable for rep in reports
    )


def _check_chunk(
    chunk: list[tuple[str, str]], tids: tuple[str, ...], budgets: Budgets
) -> list[tuple[TheoremReport | bool, ...]]:
    """The compact reports of each (graph_id, serialization) of a chunk."""
    return [
        _compact(_check_graph(parse_edge_list(text), gid, tids, budgets)) for gid, text in chunk
    ]


def _summarize(
    results: Iterable[tuple[str, tuple[TheoremReport | bool, ...]]],
    tids: tuple[str, ...],
    fail_fast: bool,
    family: str,
    start: float,
) -> SweepSummary:
    """Count a stream of (serialization, compact reports) pairs, read in
    order and no further than the first failure under fail_fast."""
    graphs_tested = 0
    checks_run = 0
    checks_applicable = 0
    failures: list[tuple[str, TheoremReport]] = []
    truncated = False
    for text, outcome in results:
        graphs_tested += 1
        for rep in outcome:
            checks_run += 1
            if rep is False:
                continue
            checks_applicable += 1
            if rep is not True:
                failures.append((text, rep))
                if fail_fast:
                    truncated = True
                    break
        if truncated:
            break
    failures.sort(key=lambda fr: (fr[0], fr[1].theorem_id))
    return SweepSummary(
        family=family,
        theorem_ids=tids,
        graphs_tested=graphs_tested,
        checks_run=checks_run,
        checks_applicable=checks_applicable,
        failures=tuple(failures),
        truncated=truncated,
        truncation_reason="fail-fast" if truncated else None,
        elapsed=time.perf_counter() - start,
    )


# graphs per pool task, and tasks per worker submitted ahead of the one read
_CHUNK = 8
_CHUNKS_PER_WORKER = 4


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled(
    pool,
    items: Iterator[tuple[str, Graph]],
    tids: tuple[str, ...],
    budgets: Budgets,
    in_flight: int,
) -> Iterator[tuple[str, tuple[TheoremReport | bool, ...]]]:
    """(serialization, compact reports) of each graph, in stream order, from
    chunks checked in the pool. At most in_flight chunks are submitted and
    not yet read, so the stream is read only that far ahead of the results."""
    pending: deque = deque()

    def oldest():
        chunk, future = pending.popleft()
        for (_, text), outcome in zip(chunk, future.result()):
            yield text, outcome

    while chunk := [(gid, serialize(g)) for gid, g in islice(items, _CHUNK)]:
        pending.append((chunk, pool.submit(_check_chunk, chunk, tids, budgets)))
        if len(pending) == in_flight:
            yield from oldest()
    while pending:
        yield from oldest()


def sweep(
    items: Iterable[tuple[str, Graph]],
    theorem_ids: Iterable[str],
    budgets: Budgets = DEFAULT_BUDGETS,
    fail_fast: bool = False,
    workers: int = 1,
    family: str = "custom",
) -> SweepSummary:
    """Run the chosen checkers over a (graph_id, Graph) stream.

    Deterministic for a fixed stream regardless of worker count: work is
    submitted and merged in stream order, and failures are finally sorted by
    (graph serialization, theorem id).

    With workers > 1 the pool has at most one process per available CPU and
    per graph: the first that many graphs are read before it starts, and
    with fewer than two of them the sweep runs in this process. The stream
    is then read as the workers go: it is serialized in chunks of _CHUNK
    graphs, and at most _CHUNKS_PER_WORKER chunks per worker are submitted
    and not yet read. Each graph's reports are summarized in compact form,
    in a worker as in this process: the failing reports in full and an
    applicable flag for each other one. Under fail_fast the sweep stops
    reading the stream at the first failure and cancels the chunks not yet
    started.
    """
    tids = _known_ids(theorem_ids)
    start = time.perf_counter()
    items = iter(items)
    workers = min(workers, _available_cpus())
    head = list(islice(items, workers)) if workers > 1 else []
    items = chain(head, items)
    if len(head) <= 1:
        results = ((serialize(g), _compact(_check_graph(g, gid, tids, budgets))) for gid, g in items)
        return _summarize(results, tids, fail_fast, family, start)
    # imported here: the pool pulls in multiprocessing, which every other
    # command would pay for at start-up
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=len(head))
    try:
        results = _pooled(pool, items, tids, budgets, len(head) * _CHUNKS_PER_WORKER)
        return _summarize(results, tids, fail_fast, family, start)
    finally:
        pool.shutdown(cancel_futures=True)


# -- open-problem searches ------------------------------------------------------


class Problem1Report(NamedTuple):
    """Non-bipartite KE unicyclic graphs up to max_n, split by whether
    core = ker."""

    max_n: int
    examined: int
    equal: tuple[tuple[str, str], ...]
    different: tuple[tuple[str, str], ...]


def search_problem1(max_n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Problem1Report:
    from .corpus import _check_enum_n, enumerate_unicyclic

    _check_enum_n("unicyclic", max_n, budgets.enum_n)
    equal = []
    different = []
    examined = 0
    for n in range(3, max_n + 1):
        for i, g in enumerate(enumerate_unicyclic(n, budgets=budgets)):
            f = _Facts(g, budgets)
            if f.shape.bipartite or f.alpha + f.mu != g.n:
                continue
            examined += 1
            gid = f"uni:n{n}:{i}"
            k = f.subset_sweep.ker
            (equal if k == f.core else different).append((gid, serialize(g)))
    return Problem1Report(
        max_n=max_n,
        examined=examined,
        equal=tuple(equal),
        different=tuple(different),
    )


def classify_sum_defect(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """|corona(G)| + |core(G)| - 2 alpha(G); 0 or 1 on connected unicyclic
    graphs, unconstrained in general."""
    a = _alpha_active(g.adj, (1 << g.n) - 1, budgets)
    return len(corona(g, budgets)) + len(core(g, budgets)) - 2 * a


def sum_defect_histogram(
    items: Iterable[tuple[str, Graph]],
    budgets: Budgets = DEFAULT_BUDGETS,
    exemplars_per_bucket: int = 3,
) -> tuple[dict[int, int], dict[int, tuple[tuple[str, str], ...]]]:
    """Counts per defect value plus the first few exemplars of each bucket."""
    counts: dict[int, int] = {}
    examples: dict[int, list[tuple[str, str]]] = {}
    for gid, g in items:
        d = classify_sum_defect(g, budgets)
        counts[d] = counts.get(d, 0) + 1
        bucket = examples.setdefault(d, [])
        if len(bucket) < exemplars_per_bucket:
            bucket.append((gid, serialize(g)))
    return counts, {d: tuple(v) for d, v in examples.items()}
