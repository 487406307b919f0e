"""Executable checkers for the theorem catalog, corpus sweeps, and the two
open-problem searches.

Every checker decides applicability from the statement's hypotheses and then
tests the conclusion by direct computation on primitives: enumerated maximum
independent sets, alpha queries, augmenting-path matchings, and the subset
sweep. No checker ever shortcuts through another catalog statement; in
particular ker is always recomputed by the subset sweep here, never through
the matching-based ker() (which rests on results of the same kind as the
statements under test), and the pendant-tree sets come from the checker's
own primitive (core, corona or the subset sweep's ker) on each tree, united
in the host graph by unicyclic._pendant_union, never from the structural_*
functions.

A checker takes the record and returns a verdict, (applicable, holds,
witness, counterexample) with the last two optional. Its witness and
counterexample are unrendered payloads: (name, value) pairs whose values
are VertexSets, Matchings, lists of label pairs, ints, bools or labels, or
a callable that gives one of them when the payload is rendered.
check alone turns a verdict into a TheoremReport: it stamps the theorem and
graph ids, keeps the counterexample only when holds is False, and is the one
place that renders a payload into the strings a report carries (_render).
A sweep builds no report for a graph whose checks all pass: it computes each
graph's flags (_flags), one per checker, and only a graph with a failing
check gets its reports, built again by check from the graph.

The checkers read a graph's primitives from a per-graph record (_Facts):
shape, alpha, mu, core, corona, the sum defect, the family of maximum
independent sets, the subset-sweep report, the cycle and the unicyclic
decomposition. It also serves `analyze` (cli._analysis_record) and `search
--problem 2` (classify_sum_defect). Each value is the result of the same
primitive call a checker would make on its own, made the first time it is
asked for and then kept for that graph only. The record caches primitives,
never a conclusion, so the rule above holds unchanged: ker comes from the
sweep, core and corona from alpha queries or from the enumerated family,
pendant-tree values from calls on each pendant tree. The family rests on
exhaustive search only (independence._mis_masks and its _alpha_memo), never
on the forest, unicyclic, Koenig or branch-and-bound paths of alpha, core
and corona. The record keeps it as masks in search order (mis_masks), which
is all that TH11, TH12, mis_core and mis_corona read to decide; the family
sorted by labels (mis_family) is built only to name the members a failing
TH11 or TH12 reports. TH1's verdict rests on the same alpha memo, run on
the line graph, never on the blossom matcher behind mu: a maximum matching
breaks TH1 at v in N(core) exactly when no edge of it joins v to core, so
TH1 fails at v exactly when the line graph minus the edges from v into core
still has mu independent vertices (_unmatchable). The maximum matchings
themselves, the same search's sets on the line graph, are listed only to
render their count in a report, to name a counterexample, and up front when
matching_limit could refuse the family. sweep
builds one record per graph and runs the chosen checkers against it in the
given order, so each graph pays for one subset sweep, one alpha and one mu
however many checkers read them. alpha, core and corona come from one
binding, independence._alpha_drops, whose single pass over the components
gives all three: a run that reads alpha alone pays for core and corona as
well, and one that reads all three pays for one pass. LEM2's cycle-edge
test reads every alpha(G - e) off one prefix and one suffix DP along the
cycle (unicyclic._non_critical_cycle_edges), an exact alpha computation
that rests on no catalog statement. The decomposition reuses the record's cycle.

On a bipartite component with more edges than vertices, core() and corona()
read their answer off one maximum matching (core = D(G) and corona =
V - A(G), the Gallai-Edmonds sets), so N(core) = V - corona and
|core| + |corona| = 2 alpha hold there by construction. The checkers of
statements of that kind (TH1, TH2B, TH4A and TH4B) therefore take core and
corona from the enumerated family whenever the graph has such a component,
as TH11 and TH12 always do; on every other graph they read core() and
corona() like the rest. _Facts.matching_read asks independence._branches,
the dispatch core() and corona() follow, whether the graph has one.

A report's witness payload is re-verified under its defining predicate before
it is returned, so a report never carries an unchecked certificate. TH1 and
TH11 check theirs on index pairs: every pair list goes through
matching._matched_vertices, the predicate the Matching constructor enforces
(each pair an edge, no vertex repeated), and TH11 checks that it covers the
sources. TH1 checks every maximum matching it lists, whether to count them
(a deferred witness value, listed when check renders it) or to find a
counterexample. Matching objects are built only when a TH1 pair list fails,
to name the counterexample as the sorted family lists it. LEM1B's matching
still comes from saturating_matching and is checked for saturation.
"""

from __future__ import annotations

import os
import time
from collections import deque
from functools import cache, partial
from itertools import chain, cycle, islice
from math import comb
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

from .budgets import DEFAULT_BUDGETS, Budgets
from .critical import _check_subset_n, critical_difference_bruteforce, diff
from .errors import DomainError
from .graph import Graph, VertexSet, _bits, _match, _union, classify_shape, serialize
from .independence import (
    _alpha_drops,
    _alpha_memo,
    _branches,
    _mis_family,
    _sorted_sets,
    core,
    corona,
    is_independent,
)
from .matching import (
    Matching,
    _check_matching_n,
    _line_graph,
    _matched_vertices,
    _maximum_matching_pairs,
    mu,
    saturating_matching,
)
from .unicyclic import (
    _decompose,
    _lift,
    _non_critical_cycle_edges,
    _pendant_union,
    _walk_cycle,
    find_cycle,
)

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


class _kept:
    """functools.cached_property without its lock, which Python 3.11 takes
    on every first read: the value goes into the instance's dict, where the
    next read finds it first, only once the method has returned."""

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class _Facts:
    """The primitives of one graph, each computed on first use and kept.

    Every property calls the module-level primitive when it is first read,
    through this module's global name, so a wrapper installed on that name
    sees the call. A primitive that raises leaves its value unset."""

    def __init__(self, g: Graph, budgets: Budgets):
        self.g = g
        self.budgets = budgets

    @_kept
    def shape(self):
        return classify_shape(self.g)

    @_kept
    def unicyclic(self) -> bool:
        return self.shape.kind == "unicyclic"

    @_kept
    def mu(self) -> int:
        return mu(self.g)

    @_kept
    def alpha_core_corona(self) -> tuple[int, VertexSet, VertexSet]:
        a, c, o = _alpha_drops(self.g.adj, (1 << self.g.n) - 1, self.budgets)
        return a, VertexSet(self.g, c), VertexSet(self.g, o)

    @property
    def alpha(self) -> int:
        return self.alpha_core_corona[0]

    @property
    def core(self) -> VertexSet:
        return self.alpha_core_corona[1]

    @property
    def corona(self) -> VertexSet:
        return self.alpha_core_corona[2]

    @_kept
    def mis_masks(self) -> list[int]:
        """The MIS family as masks, in search order."""
        return _mis_family(self.g, self.budgets)

    @_kept
    def mis_family(self) -> tuple[VertexSet, ...]:
        """The MIS family sorted by labels, for a report that names a
        member."""
        return _sorted_sets(self.g, self.mis_masks)

    @_kept
    def mis_core(self) -> VertexSet:
        """core as the intersection of the MIS family."""
        inter = (1 << self.g.n) - 1
        for s in self.mis_masks:
            inter &= s
        return VertexSet(self.g, inter)

    @_kept
    def mis_corona(self) -> VertexSet:
        """corona as the union of the MIS family."""
        union = 0
        for s in self.mis_masks:
            union |= s
        return VertexSet(self.g, union)

    @_kept
    def sum_defect(self) -> int:
        """|corona| + |core| - 2 alpha."""
        return len(self.corona) + len(self.core) - 2 * self.alpha

    @_kept
    def matching_read(self) -> bool:
        """Whether core() and corona() read some component of the graph off
        one maximum matching: the dispatch gives it kind "bipartite"."""
        return any(k == "bipartite" for k, _, _ in _branches(self.g.adj, (1 << self.g.n) - 1))

    @_kept
    def ke_core(self) -> VertexSet:
        """core for the checkers of statements about KE graphs (TH1, TH2B,
        TH4A, TH4B): from the MIS family where core() reads a component off
        a matching, since that rests on statements of the same kind."""
        return self.mis_core if self.matching_read else self.core

    @_kept
    def ke_corona(self) -> VertexSet:
        """corona for the same checkers, by the same rule as ke_core."""
        return self.mis_corona if self.matching_read else self.corona

    @_kept
    def subset_sweep(self):
        return critical_difference_bruteforce(self.g, self.budgets)

    @_kept
    def cycle(self) -> tuple[str, ...]:
        # the shape has walked the components that find_cycle would walk again
        return _walk_cycle(self.g) if self.unicyclic else find_cycle(self.g)

    @_kept
    def decomposition(self):
        return _decompose(self.g, self.cycle)


def _render(value: object) -> object:
    """A payload value as a report carries it: a vertex set as {a, b}, a
    matching or a list of label pairs as [a-b, c-d], anything else as is. A
    callable is a value deferred until a report renders it, and is called
    first."""
    if callable(value):
        value = value()
    if isinstance(value, VertexSet):
        return "{" + ", ".join(value.labels()) + "}"
    if isinstance(value, Matching):
        value = value.edge_labels()
    if isinstance(value, list):
        return "[" + ", ".join(f"{a}-{b}" for a, b in value) + "]"
    return value


def _not_ke(f: _Facts) -> tuple | None:
    """The inapplicable verdict of a statement about KE graphs, or None when
    alpha + mu = n."""
    if f.alpha + f.mu != f.g.n:
        return False, None, [("alpha_plus_mu", f.alpha + f.mu)]
    return None


def _not_unicyclic_non_ke(f: _Facts) -> tuple | None:
    """The inapplicable verdict of a statement about connected unicyclic
    graphs with alpha + mu = n - 1, or None when the graph is one."""
    if not f.unicyclic:
        return False, None
    if f.alpha + f.mu == f.g.n:
        return False, None, [("alpha_plus_mu", f.alpha + f.mu)]
    return None


# -- individual checkers ------------------------------------------------------


def _check_lem1a(f: _Facts) -> tuple:
    """Unicyclic non-KE: core(G) and the closed neighbourhood of the cycle
    are disjoint."""
    if skip := _not_unicyclic_non_ke(f):
        return skip
    g = f.g
    closed = g.neighborhood(g.set_of(f.cycle), closed=True)
    c = f.core
    overlap = c & closed
    wit = [("core", c), ("closed_cycle_neighborhood", closed)]
    if overlap:
        return True, False, wit, [("overlap", overlap)]
    return True, True, wit


def _check_lem1b(f: _Facts) -> tuple:
    """Unicyclic non-KE: some matching carries N(core(G)) into core(G)."""
    if skip := _not_unicyclic_non_ke(f):
        return skip
    c = f.core
    nc = f.g.neighborhood(c)
    match = saturating_matching(f.g, nc, c)
    wit = [("core", c), ("n_core", nc)]
    if match is None:
        return True, False, wit, [("unsaturated_from", nc)]
    assert nc <= match.vertices()
    wit.append(("matching", match))
    return True, True, wit


def _check_lem2(f: _Facts) -> tuple:
    """Unicyclic: n-1 <= alpha+mu <= n, with equality at n-1 exactly when
    every cycle edge is alpha-critical (checked in both directions)."""
    if not f.unicyclic:
        return False, None
    g = f.g
    a, m = f.alpha, f.mu
    total = a + m
    non_critical = _non_critical_cycle_edges(g, f.cycle, a)
    bounds_ok = g.n - 1 <= total <= g.n
    iff_ok = (total == g.n - 1) == (not non_critical)
    wit = [
        ("alpha", a),
        ("mu", m),
        ("alpha_plus_mu", total),
        ("non_critical_cycle_edges", non_critical),
    ]
    return True, bounds_ok and iff_ok, wit, [("bounds_ok", bounds_ok), ("iff_ok", iff_ok)]


def _covers(g: Graph, sources: int, targets: int) -> bool:
    """Whether some matching of the slice from sources to targets covers
    every source; a covering matching is first checked as a matching."""
    mate = _match(g.adj, sources, targets)
    if len(mate) < sources.bit_count():
        return False
    covered = _matched_vertices(g, [(v, t) for t, v in mate.items()])
    assert sources & ~covered == 0
    return True


def _check_th11(f: _Facts) -> tuple:
    """Every graph: for each maximum independent set S there is a matching
    from S - core(G) into corona(G) - S."""
    g = f.g
    family = f.mis_masks
    inter = f.mis_core.mask
    union = f.mis_corona.mask
    if all(_covers(g, s & ~inter, union & ~s) for s in family):
        return True, True, [("mis_count", len(family)), ("matchings_found", len(family))]
    # the counterexample is the first failing set in label order
    bad = next(s.mask for s in f.mis_family if not _covers(g, s.mask & ~inter, union & ~s.mask))
    return (
        True, False, [("mis_count", len(family))],
        [("S", VertexSet(g, bad)), ("sources", VertexSet(g, bad & ~inter)),
         ("targets", VertexSet(g, union & ~bad))],
    )


def _unmatched_into(pairs, into: int, sources: int) -> int:
    """The vertices of the sources mask that the index pairs do not match to
    a vertex of the into mask."""
    hit = 0
    for i, j in pairs:
        if into >> j & 1:
            hit |= 1 << i
        if into >> i & 1:
            hit |= 1 << j
    return sources & ~hit


def _unmatchable(edges, line, into: int, sources: int, memo: dict[int, int]) -> int:
    """The vertices v of the sources mask that some maximum matching leaves
    without a partner in the into mask, given the edges and the line graph L
    from _line_graph: v is one exactly when L minus X_v, the edges from v
    into the into mask, still has alpha(L) = mu independent vertices. Every
    alpha is exhaustive (_alpha_memo), all from the one memo."""
    full = (1 << len(edges)) - 1
    top = _alpha_memo(line, full, memo)
    x = dict.fromkeys(_bits(sources), 0)  # x[v]: X_v as a mask of L
    for e, (i, j) in enumerate(edges):
        if i in x and into >> j & 1:
            x[i] |= 1 << e
        if j in x and into >> i & 1:
            x[j] |= 1 << e
    missed = 0
    for v, xv in x.items():
        if _alpha_memo(line, full & ~xv, memo) == top:
            missed |= 1 << v
    return missed


def _listed_matchings(g: Graph, budgets: Budgets) -> list[tuple[tuple[int, int], ...]]:
    """Every maximum matching as index pairs, each checked as a matching."""
    family = _maximum_matching_pairs(g, budgets)
    for pairs in family:
        _matched_vertices(g, pairs)
    return family


def _check_th1(f: _Facts) -> tuple:
    """KE graphs: every maximum matching matches N(core(G)) into core(G).

    The verdict lists no matching: _unmatchable tests each vertex of
    N(core) on the line graph. The family is listed to count it when a
    report is rendered, to name a counterexample, and up front when it
    could pass matching_limit, to refuse as the listing does."""
    if skip := _not_ke(f):
        return skip
    g = f.g
    c = f.ke_core
    nc = g.neighborhood(c)
    wit = [("core", c), ("n_core", nc)]
    _check_matching_n(g.n, f.budgets)
    edges, line = _line_graph(g)
    memo: dict[int, int] = {}
    listed = cache(partial(_listed_matchings, g, f.budgets))
    # a family of maximum matchings has at most C(m, mu) members: list it
    # up front only when it could pass matching_limit, which then refuses
    size = _alpha_memo(line, (1 << len(edges)) - 1, memo)
    if comb(len(edges), size) > f.budgets.matching_limit:
        listed()
    if not _unmatchable(edges, line, c.mask, nc.mask, memo):
        return True, True, wit + [("maximum_matchings", lambda: len(listed()))]
    # the counterexample is the first failing matching in the sorted family,
    # and its first failing vertex by label
    family = listed()
    match = min((Matching(g, pairs) for pairs in family
                 if _unmatched_into(pairs, c.mask, nc.mask)), key=Matching.edge_labels)
    v = VertexSet(g, _unmatched_into(match.pairs, c.mask, nc.mask)).labels()[0]
    partner = match.matched_to(v)
    return (
        True, False, wit,
        [
            ("matching", match),
            ("vertex", v),
            ("matched_to", "-" if partner is None else partner),
        ],
    )


def _check_th2a(f: _Facts) -> tuple:
    """Every graph: ker(G) is a critical independent set contained in
    core(G). ker is recomputed by the subset sweep here."""
    g = f.g
    rep = f.subset_sweep
    k = rep.ker
    c = f.core
    d_ker = diff(g, k)
    independent = is_independent(g, k)
    critical = d_ker == rep.id_c
    contained = k <= c
    wit = [("ker", k), ("core", c), ("d_ker", d_ker), ("id_c", rep.id_c)]
    return (
        True, independent and critical and contained, wit,
        [("independent", independent), ("critical", critical), ("contained", contained)],
    )


def _check_th2b(f: _Facts) -> tuple:
    """Bipartite graphs: ker(G) = core(G), both recomputed independently."""
    if not f.shape.bipartite:
        return False, None
    k = f.subset_sweep.ker
    c = f.ke_core
    wit = [("ker", k), ("core", c)]
    if k == c:
        return True, True, wit
    return True, False, wit, [("difference", (k | c) - (k & c))]


def _check_th3(f: _Facts) -> tuple:
    """Unicyclic non-KE: corona(G) and N(core(G)) cover V(G), and corona is
    the cycle plus the pendant-tree coronas."""
    if skip := _not_unicyclic_non_ke(f):
        return skip
    g = f.g
    cor = f.corona
    nc = g.neighborhood(f.core)
    dec = f.decomposition
    assembled = dec.cycle_set | _pendant_union(dec, lambda t: corona(t, f.budgets))
    eq_cover = (cor | nc) == g.full_set()
    eq_parts = assembled == cor
    wit = [("corona", cor), ("n_core", nc), ("cycle_plus_pendant_coronas", assembled)]
    return (
        True, eq_cover and eq_parts, wit,
        [("cover_equals_v", eq_cover), ("corona_decomposes", eq_parts)],
    )


def _check_th4a(f: _Facts) -> tuple:
    """KE graphs: N(core(G)) = V(G) - corona(G)."""
    if skip := _not_ke(f):
        return skip
    nc = f.g.neighborhood(f.ke_core)
    rest = f.ke_corona.complement()
    wit = [("n_core", nc), ("v_minus_corona", rest)]
    if nc == rest:
        return True, True, wit
    return True, False, wit, [("difference", (nc | rest) - (nc & rest))]


def _check_th4b(f: _Facts) -> tuple:
    """KE graphs: |corona(G)| + |core(G)| = 2 alpha(G)."""
    if skip := _not_ke(f):
        return skip
    a = f.alpha
    c = f.ke_core
    cor = f.ke_corona
    total = len(cor) + len(c)
    wit = [("core_size", len(c)), ("corona_size", len(cor)), ("sum", total), ("two_alpha", 2 * a)]
    return True, total == 2 * a, wit, [("sum", total), ("two_alpha", 2 * a)]


def _check_th12(f: _Facts) -> tuple:
    """Unicyclic non-KE: pendant maximum independent sets extend to maximum
    independent sets of G, restrict back onto the pendant trees, and core(G)
    is the union of the pendant cores."""
    if skip := _not_unicyclic_non_ke(f):
        return skip
    g = f.g
    family = f.mis_masks
    dec = f.decomposition
    extends = restricts = True
    bad = []
    for pt in dec.pendant_trees:
        tv = pt.vertices.mask
        lift = _lift(pt)
        tree_family = [_union(lift, w) for w in _mis_family(pt.tree, f.budgets)]
        members = set(tree_family)
        unextendable = [w for w in tree_family if not any(w & ~s == 0 for s in family)]
        unrestricted = [s for s in family if s & tv not in members]
        extends = extends and not unextendable
        restricts = restricts and not unrestricted
        # each named in the label order of its family
        if unextendable:
            bad += [("unextendable", f"{pt.root}:{list(w.labels())}")
                    for w in _sorted_sets(g, unextendable)]
        if unrestricted:
            bad += [("bad_restriction", f"{pt.root}:{list((s & pt.vertices).labels())}")
                    for s in _sorted_sets(g, unrestricted)]
    inter = f.mis_core
    union_core = _pendant_union(dec, lambda t: core(t, f.budgets))
    cores_match = union_core == inter
    if not cores_match:
        bad.append(("core_union", union_core))
    wit = [
        ("core", inter),
        ("pendant_core_union", union_core),
        ("pendant_trees", len(dec.pendant_trees)),
        ("mis_count", len(family)),
    ]
    return True, extends and restricts and cores_match, wit, bad


def _check_main(f: _Facts) -> tuple:
    """Unicyclic: 2 alpha <= |corona| + |core| <= 2 alpha + 1, and the sum
    hits 2 alpha + 1 exactly for the non-KE case. The sum is reported even
    when the graph is not unicyclic, since the inapplicable value is itself
    informative."""
    a, m = f.alpha, f.mu
    defect = f.sum_defect
    wit = [
        ("sum", defect + 2 * a),
        ("two_alpha", 2 * a),
        ("sum_defect", defect),
        ("alpha_plus_mu", a + m),
    ]
    if not f.unicyclic:
        return False, None, wit
    bounds_ok = 0 <= defect <= 1
    iff_ok = (a + m == f.g.n - 1) == (defect == 1)
    return True, bounds_ok and iff_ok, wit, [("bounds_ok", bounds_ok), ("iff_ok", iff_ok)]


def _check_kercore(f: _Facts) -> tuple:
    """Unicyclic non-KE: ker(G) = union of pendant kers = core(G), with every
    ker recomputed by the subset sweep."""
    if skip := _not_unicyclic_non_ke(f):
        return skip
    k = f.subset_sweep.ker
    c = f.core
    union = _pendant_union(
        f.decomposition, lambda t: critical_difference_bruteforce(t, f.budgets).ker
    )
    eq_union = k == union
    eq_core = k == c
    wit = [("ker", k), ("pendant_ker_union", union), ("core", c)]
    return True, eq_union and eq_core, wit, [("ker_eq_union", eq_union), ("ker_eq_core", eq_core)]


def _check_zhang(f: _Facts) -> tuple:
    """Every graph: d_c = id_c."""
    rep = f.subset_sweep
    wit = [("d_c", rep.d_c), ("id_c", rep.id_c), ("witness_set", rep.witness_set)]
    return True, rep.d_c == rep.id_c, wit, [("d_c", rep.d_c), ("id_c", rep.id_c)]


_CHECKERS: dict[str, Callable[[_Facts], tuple]] = {
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

THEOREM_IDS = tuple(_CHECKERS)


def check(
    theorem_id: str,
    g: Graph,
    graph_id: str = "?",
    budgets: Budgets = DEFAULT_BUDGETS,
) -> TheoremReport:
    """Run one catalog checker and build its report. Raises DomainError for
    an unknown id and BudgetExceededError when the graph exceeds the invoked
    sub-operations.

    Within this module g may also be the record of a graph, whose computed
    values (and budgets) the call then shares with the other checkers."""
    checker = _CHECKERS.get(theorem_id)
    if checker is None:
        raise DomainError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    applicable, holds, *payload = checker(g if isinstance(g, _Facts) else _Facts(g, budgets))
    return TheoremReport(
        theorem_id=theorem_id,
        graph_id=graph_id,
        applicable=applicable,
        holds=holds,
        witness=_rendered(payload[0]) if payload else (),
        counterexample=_rendered(payload[1]) if holds is False and len(payload) > 1 else (),
    )


def _rendered(payload: Iterable[tuple[str, object]]) -> tuple[tuple[str, object], ...]:
    return tuple((name, _render(value)) for name, value in payload)


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


def _flags(g: Graph, tids: tuple[str, ...], budgets: Budgets) -> tuple[bool | None, ...]:
    """The verdicts of the given checkers on one graph, in the given order,
    all reading one record: per checker its applicable flag, or None where
    it fails. No report is built and no payload rendered."""
    f = _Facts(g, budgets)
    flags = []
    for tid in tids:
        verdict = _CHECKERS[tid](f)
        flags.append(None if verdict[1] is False else verdict[0])
    return tuple(flags)


def _compact(reports: list[TheoremReport]) -> tuple[TheoremReport | bool, ...]:
    """A graph's reports in the form _summarize reads: each failing report
    in full, every other report as its applicable flag."""
    return tuple(
        rep if rep.applicable and rep.holds is False else rep.applicable for rep in reports
    )


def _outcome(
    g: Graph, gid: str, flags: tuple[bool | None, ...], tids: tuple[str, ...], budgets: Budgets
) -> tuple[TheoremReport | bool, ...]:
    """A graph's compact reports from its flags: the flags themselves when
    no check fails, else its reports, built again by check."""
    return _compact(_check_graph(g, gid, tids, budgets)) if None in flags else flags


def _summarize(
    results: Iterable[tuple[Graph, tuple[TheoremReport | bool, ...]]],
    tids: tuple[str, ...],
    fail_fast: bool,
    family: str,
    start: float,
) -> SweepSummary:
    """Count a stream of (graph, compact reports) pairs, read in order and
    no further than the first failure under fail_fast. Only a graph with a
    failing report is serialized, to go with that report."""
    graphs_tested = 0
    checks_run = 0
    checks_applicable = 0
    failures: list[tuple[str, TheoremReport]] = []
    truncated = False
    for g, outcome in results:
        graphs_tested += 1
        for rep in outcome:
            checks_run += 1
            if rep is False:
                continue
            checks_applicable += 1
            if rep is not True:
                failures.append((serialize(g), rep))
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


# graphs per chunk, and chunks per worker sent ahead of the one read
_CHUNK = 8
_CHUNKS_PER_WORKER = 4


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send(fd: int, obj) -> None:
    """Write obj to a pipe as one frame: a 4-byte length, then its pickle."""
    import pickle  # here and in _recv: only the pool path pays for it

    data = pickle.dumps(obj)
    view = memoryview(len(data).to_bytes(4, "big") + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(reader: BinaryIO) -> object:
    """The object of the next frame on a pipe, or None at its end."""
    import pickle

    head = reader.read(4)
    size = int.from_bytes(head, "big")
    body = reader.read(size)
    return pickle.loads(body) if len(head) == 4 and len(body) == size else None


def _pooled(
    items: Iterator[tuple[str, Graph]],
    tids: tuple[str, ...],
    budgets: Budgets,
    workers: int,
) -> Iterator[tuple[Graph, tuple[TheoremReport | bool, ...]]]:
    """(graph, compact reports) of each graph, in stream order, from chunks
    checked in forked workers, each fed over its own pair of pipes: chunk k
    goes to worker k mod workers. Closed or raising before its end, the
    generator kills the workers; it reaps them in every case."""
    import pickle  # for _send and _recv: loaded once, before the workers fork
    import signal

    procs: list[tuple[int, int, BinaryIO]] = []  # (pid, fd to it, reader from it)
    try:
        for _ in range(workers):
            down_r, down_w = os.pipe()
            up_r, up_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # it never returns into the caller's frames, and holds no end
                # of another worker's pipes, so each closes with its holder
                try:
                    for _, fd, reader in procs:
                        os.close(fd)
                        reader.close()
                    os.close(down_w)
                    os.close(up_r)
                    inbox = open(down_r, "rb")
                    while (chunk := _recv(inbox)) is not None:
                        try:
                            reply = [_flags(g, tids, budgets) for _, g in chunk]
                        except Exception as exc:
                            reply = exc
                        _send(up_w, reply)
                    os._exit(0)
                finally:
                    os._exit(1)
            procs.append((pid, down_w, open(up_r, "rb")))
            os.close(down_r)
            os.close(up_w)
        pending: deque = deque()

        def oldest():
            chunk, reader = pending.popleft()
            reply = _recv(reader)
            if reply is None:
                raise ChildProcessError("a sweep worker ended before sending its results")
            if isinstance(reply, Exception):
                raise reply
            for (gid, g), flags in zip(chunk, reply):
                # a failing graph's reports are built here, so that a reply
                # stays small and never fills its pipe while this process is
                # blocked writing to the worker
                yield g, _outcome(g, gid, flags, tids, budgets)

        chunks = iter(lambda: list(islice(items, _CHUNK)), [])
        for (_, fd, reader), chunk in zip(cycle(procs), chunks):
            try:
                _send(fd, chunk)
            except BrokenPipeError:
                pass  # the worker has ended: raised when its reply is read
            pending.append((chunk, reader))
            if len(pending) == workers * _CHUNKS_PER_WORKER:
                yield from oldest()
        while pending:
            yield from oldest()
    except BaseException:
        # fail-fast, an error or an interrupt: the chunks in flight are moot
        for pid, _, _ in procs:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # a worker exits at the end of its pipe
        for pid, fd, reader in procs:
            os.close(fd)
            reader.close()
            os.waitpid(pid, 0)


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
    sent and merged in stream order, and failures are finally sorted by
    (graph serialization, theorem id).

    With workers > 1 the sweep forks at most one worker per available CPU
    and per graph: the first that many graphs are read before they start,
    and with fewer than two of them, or without os.fork, the sweep runs in
    this process. The stream is then read as the workers go, in chunks of
    _CHUNK graphs, at most _CHUNKS_PER_WORKER chunks per worker ahead.

    Either way each graph's checks first give its flags (_flags), and only a
    graph with a failing check gets its reports, built again by check from
    the graph in this process: a passing sweep builds no report. Under
    fail_fast the sweep stops reading the stream at the first failure and
    kills the workers with the chunks in flight. An exception in a worker,
    or a worker's death, is raised in stream order.
    """
    tids = _known_ids(theorem_ids)
    start = time.perf_counter()
    items = iter(items)
    workers = min(workers, _available_cpus()) if hasattr(os, "fork") else 1
    head = list(islice(items, workers)) if workers > 1 else []
    items = chain(head, items)
    if len(head) <= 1:
        results = ((g, _outcome(g, gid, _flags(g, tids, budgets), tids, budgets))
                   for gid, g in items)
    else:
        results = _pooled(items, tids, budgets, len(head))
    try:
        return _summarize(results, tids, fail_fast, family, start)
    finally:
        results.close()


# -- open-problem searches ------------------------------------------------------


class Problem1Report(NamedTuple):
    """Non-bipartite KE unicyclic graphs up to max_n, split by whether
    core = ker."""

    max_n: int
    examined: int
    equal: tuple[tuple[str, str], ...]
    different: tuple[tuple[str, str], ...]


def search_problem1(max_n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Problem1Report:
    from .corpus import _family_orders, family_items

    # every non-bipartite KE unicyclic graph gets a subset sweep, and every
    # order from 4 up has one: refuse the first order above subset_n before
    # the first graph. _family_orders checks the enumeration limit first, as
    # family_items does.
    first = max(4, budgets.subset_n + 1)
    if first in _family_orders("unicyclic", max_n, budgets):
        _check_subset_n(first, budgets)

    equal = []
    different = []
    examined = 0
    for gid, g in family_items("unicyclic", max_n=max_n, budgets=budgets):
        f = _Facts(g, budgets)
        if f.shape.bipartite or f.alpha + f.mu != g.n:
            continue
        examined += 1
        (equal if f.subset_sweep.ker == f.core else different).append((gid, serialize(g)))
    return Problem1Report(
        max_n=max_n,
        examined=examined,
        equal=tuple(equal),
        different=tuple(different),
    )


def classify_sum_defect(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """|corona(G)| + |core(G)| - 2 alpha(G); 0 or 1 on connected unicyclic
    graphs, unconstrained in general."""
    return _Facts(g, budgets).sum_defect


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
