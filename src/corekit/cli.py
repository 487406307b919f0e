"""Command-line front end: analyze / verify / search / generate.

Output discipline: everything semantic goes to stdout in a canonical order
(sorted labels, fixed field order), so identical invocations are
byte-identical regardless of worker count or timing; elapsed time and other
diagnostics go to stderr. Exit codes: 0 success (all checks hold), 1 a
counterexample was found, 2 usage or input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .budgets import DEFAULT_BUDGETS, Budgets
from .corpus import (
    FIXTURE_NAMES,
    _family_orders,
    family_items,
    fixture,
    kernel_gap_family,
    random_unicyclic,
)
from .critical import _check_subset_n, critical_difference, ker
from .errors import BudgetExceededError, CorekitError
from .graph import Graph, parse_edge_list, serialize
from .independence import _check_mis_n
from .theorems import (
    THEOREM_IDS,
    _check_graph,
    _compact,
    _Facts,
    _known_ids,
    _summarize,
    search_problem1,
    sum_defect_histogram,
    sweep,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_COUNTEREXAMPLE = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_set(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low. A value below it is
    a usage error (exit 2), not a budget to run under."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    # argparse names the type in its message for a non-integer
    parse.__name__ = "int"
    return parse


def _budgets_from(args: argparse.Namespace) -> Budgets:
    return DEFAULT_BUDGETS._replace(
        enum_n=args.max_enum_n,
        subset_n=args.max_subset_n,
        matching_limit=args.matching_limit,
    )


def _read_graph(path: str) -> Graph:
    # utf-8-sig drops a byte-order mark, which would start the first label
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    return parse_edge_list(text)


def _graph_id(path: str) -> str:
    """The file name without its last suffix, as pathlib's stem gives it (a
    trailing dot or a leading one is no suffix), without importing pathlib
    at every start-up."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _stray_option(args: argparse.Namespace, owners) -> bool:
    """Refuse the first option given without the source it belongs to: print
    one error line naming it and return True. owners lists (option flag,
    the source the error names, whether that source was given)."""
    for option, source, given in owners:
        if getattr(args, option[2:].replace("-", "_")) is not None and not given:
            print(f"error: {option} needs {source}", file=sys.stderr)
            return True
    return False


# -- analyze -------------------------------------------------------------------


def _analysis_record(gid: str, g: Graph, budgets: Budgets) -> dict:
    """The analyze report from one theorems._Facts record, computed in the
    order shape, alpha, mu, core, corona, ker, d_c as the dict is built. ker
    and d_c stay out of the record, whose checkers take ker from the sweep."""
    f = _Facts(g, budgets)
    record = {
        "graph_id": gid,
        "n": g.n,
        "m": g.m,
        "shape": {
            "kind": f.shape.kind,
            "connected": f.shape.connected,
            "bipartite": f.shape.bipartite,
        },
        "alpha": f.alpha,
        "mu": f.mu,
        "ke": f.alpha + f.mu == g.n,
        "core": list(f.core.labels()),
        "corona": list(f.corona.labels()),
        "ker": list(ker(g).labels()),
        "d_c": critical_difference(g),
        "sum_defect": f.sum_defect,
        "unicyclic": None,
    }
    if f.unicyclic:
        dec = f.decomposition
        record["unicyclic"] = {
            "cycle": list(dec.cycle),
            "n1": list(dec.outer_roots().labels()),
            "pendant_trees": [
                {
                    "root": pt.root,
                    "anchor": pt.anchor,
                    "vertices": list(pt.vertices.labels()),
                }
                for pt in dec.pendant_trees
            ],
        }
    return record


def _print_analysis_text(rec: dict) -> None:
    shape = rec["shape"]
    out = [
        f"graph: {rec['graph_id']}",
        f"n: {rec['n']}",
        f"m: {rec['m']}",
        "shape: {} ({}connected, {}bipartite)".format(
            shape["kind"],
            "" if shape["connected"] else "dis",
            "" if shape["bipartite"] else "non-",
        ),
        f"alpha: {rec['alpha']}",
        f"mu: {rec['mu']}",
        f"koenig-egervary: {_bool(rec['ke'])}",
        f"core: {_fmt_set(rec['core'])}",
        f"corona: {_fmt_set(rec['corona'])}",
        f"ker: {_fmt_set(rec['ker'])}",
        f"critical-difference: {rec['d_c']}",
        f"sum-defect: {rec['sum_defect']}",
    ]
    uni = rec["unicyclic"]
    if uni is not None:
        out.append("cycle: (" + ", ".join(uni["cycle"]) + ")")
        out.append(f"n1: {_fmt_set(uni['n1'])}")
        for pt in uni["pendant_trees"]:
            out.append(
                f"pendant: root={pt['root']} anchor={pt['anchor']} "
                f"vertices={_fmt_set(pt['vertices'])}"
            )
    print("\n".join(out))


def _cmd_analyze(args: argparse.Namespace) -> int:
    budgets = _budgets_from(args)
    g = _read_graph(args.file)
    rec = _analysis_record(_graph_id(args.file), g, budgets)
    if args.format == "json":
        print(json.dumps(rec, indent=2))
    else:
        _print_analysis_text(rec)
    return _EXIT_OK


# -- verify --------------------------------------------------------------------


def _parse_theorems(values: list[str]) -> tuple[str, ...]:
    tids: list[str] = []
    for v in values:
        for part in v.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "all":
                tids.extend(THEOREM_IDS)
            else:
                tids.append(part)
    # preserve order, drop repeats
    seen = set()
    out = []
    for t in tids:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return tuple(out)


def _render_report_line(rep) -> str:
    holds = "-" if rep.holds is None else _bool(rep.holds)
    parts = [
        f"{rep.theorem_id} {rep.graph_id} "
        f"applicable={_bool(rep.applicable)} holds={holds}"
    ]
    for key, val in rep.witness:
        parts.append(f"{key}={val}")
    return " ".join(parts)


def _cmd_verify(args: argparse.Namespace) -> int:
    if _stray_option(args, (
        ("--max-n", "a --family other than fixtures", args.family not in (None, "fixtures")),
        ("--size", "--random", args.random is not None),
        ("--seed", "--random", args.random is not None),
    )):
        return _EXIT_USAGE
    seed = 0 if args.seed is None else args.seed
    budgets = _budgets_from(args)
    tids = _parse_theorems(args.theorem)
    if not tids:
        print("error: no theorem ids given", file=sys.stderr)
        return _EXIT_USAGE
    single = None
    if args.graph:
        gid = _graph_id(args.graph)
        single = (gid, _read_graph(args.graph))
        family = f"file:{args.graph}"
    elif args.random is not None:
        if args.size is None:
            print("error: --random needs --size", file=sys.stderr)
            return _EXIT_USAGE
        kind = "random-connected"
        family = f"random-connected(count={args.random}, size={args.size}, seed={seed})"
    else:
        if args.family != "fixtures" and args.max_n is None:
            print("error: --family needs --max-n", file=sys.stderr)
            return _EXIT_USAGE
        kind = args.family
        family = args.family if args.family == "fixtures" else f"{args.family}(max_n={args.max_n})"

    if single is None:
        # TH2A and ZHANG sweep the subsets of every graph and TH11
        # enumerates its maximum independent sets: refuse an order above
        # subset_n, then one above enum_n, before the first graph is made,
        # not after all smaller ones. An unknown id is still a usage error
        # first, as in sweep.
        known = _known_ids(tids)
        limits = []
        if "TH2A" in known or "ZHANG" in known:
            limits.append(_check_subset_n)
        if "TH11" in known:
            limits.append(_check_mis_n)
        if limits:
            orders = _family_orders(kind, args.max_n, budgets, args.random, args.size)
            for limit in limits:
                for n in orders:
                    limit(n, budgets)
        items = family_items(kind, args.max_n, args.random, args.size, seed, budgets)
        summary = sweep(
            items,
            tids,
            budgets=budgets,
            fail_fast=args.fail_fast,
            workers=args.workers,
            family=family,
        )
    else:
        # the sweep of one graph, keeping its reports to print them
        start = time.perf_counter()
        gid, g = single
        reports = _check_graph(g, gid, _known_ids(tids), budgets)
        summary = _summarize([(g, _compact(reports))], tids, args.fail_fast, family, start)
        for rep in reports:
            print(_render_report_line(rep))
    print(f"family: {summary.family}")
    print(f"theorems: {', '.join(summary.theorem_ids)}")
    print(f"graphs tested: {summary.graphs_tested}")
    print(f"checks run: {summary.checks_run}")
    print(f"checks applicable: {summary.checks_applicable}")
    print(f"failures: {len(summary.failures)}")
    if summary.truncated:
        print(f"truncated: {summary.truncation_reason}")
    for text, rep in summary.failures:
        print(f"failure: {rep.theorem_id} on {rep.graph_id}")
        for key, val in rep.counterexample:
            print(f"  {key}: {val}")
        for line in text.rstrip("\n").split("\n"):
            print(f"  | {line}")
    print("result: " + ("all hold" if summary.all_hold() else "counterexample found"))
    print(f"elapsed: {summary.elapsed:.3f}s", file=sys.stderr)
    return _EXIT_OK if summary.all_hold() else _EXIT_COUNTEREXAMPLE


# -- search --------------------------------------------------------------------


def _cmd_search(args: argparse.Namespace) -> int:
    budgets = _budgets_from(args)
    if args.problem == 1:
        if args.family is not None:
            print("error: --family is for problem 2; problem 1 searches unicyclic graphs",
                  file=sys.stderr)
            return _EXIT_USAGE
        rep = search_problem1(args.max_n, budgets)
        print("problem: 1")
        print(f"max_n: {rep.max_n}")
        print(f"examined: {rep.examined}")
        print(f"core=ker: {len(rep.equal)}")
        print(f"core!=ker: {len(rep.different)}")
        for title, bucket in (("core=ker", rep.equal), ("core!=ker", rep.different)):
            if bucket:
                gid, text = bucket[0]
                print(f"smallest {title} exemplar: {gid}")
                for line in text.rstrip("\n").split("\n"):
                    print(f"  | {line}")
        return _EXIT_OK
    family = args.family or "unicyclic"
    items = family_items(family, max_n=args.max_n, budgets=budgets)
    counts, examples = sum_defect_histogram(items, budgets)
    print("problem: 2")
    print(f"family: {family}")
    print(f"max_n: {args.max_n}")
    for d in sorted(counts):
        print(f"sum-defect {d}: {counts[d]} graphs")
        gid, text = examples[d][0]
        print(f"  exemplar: {gid}")
        for line in text.rstrip("\n").split("\n"):
            print(f"  | {line}")
    return _EXIT_OK


# -- generate ------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if _stray_option(args, (
        ("--k", "--family", args.family is not None),
        ("--n", "--random-unicyclic", args.random_unicyclic),
        ("--seed", "--random-unicyclic", args.random_unicyclic),
    )):
        return _EXIT_USAGE
    if args.fixture is not None:
        g = fixture(args.fixture)
    elif args.family is not None:
        if args.family != "kernel-gap":
            print(f"error: unknown family {args.family!r}", file=sys.stderr)
            return _EXIT_USAGE
        if args.k is None:
            print("error: --family kernel-gap needs --k", file=sys.stderr)
            return _EXIT_USAGE
        g = kernel_gap_family(args.k)
    else:
        if args.n is None:
            print("error: --random-unicyclic needs --n", file=sys.stderr)
            return _EXIT_USAGE
        g = random_unicyclic(args.n, 0 if args.seed is None else args.seed)
    sys.stdout.write(serialize(g))
    return _EXIT_OK


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-enum-n",
        type=_int_at_least(0),
        default=DEFAULT_BUDGETS.enum_n,
        help="largest n for enumeration-backed operations (default %(default)s)",
    )
    common.add_argument(
        "--max-subset-n",
        type=_int_at_least(0),
        default=DEFAULT_BUDGETS.subset_n,
        help="largest n for subset-sweep operations (default %(default)s)",
    )
    common.add_argument(
        "--matching-limit",
        type=_int_at_least(0),
        default=DEFAULT_BUDGETS.matching_limit,
        help="cap on enumerated maximum matchings (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="corekit",
        description="Independence structure of graphs: alpha, mu, core, corona, "
        "ker, critical difference, and mechanically checked statements about them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analyze", parents=[common], help="full invariant report for one edge-list file"
    )
    p_an.add_argument("file", help="edge-list file")
    p_an.add_argument("--format", choices=("text", "json"), default="text")
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="run theorem checkers over graphs"
    )
    p_ver.add_argument(
        "--theorem",
        action="append",
        default=[],
        metavar="ID",
        help=f"theorem id, comma list, or 'all' ({', '.join(THEOREM_IDS)})",
    )
    source = p_ver.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="check one edge-list file")
    source.add_argument(
        "--family",
        choices=("trees", "unicyclic", "connected", "fixtures", "kernel-gap"),
        help="exhaustive corpus to sweep",
    )
    p_ver.add_argument("--max-n", type=_int_at_least(0), help="largest n for --family")
    source.add_argument(
        "--random",
        type=_int_at_least(0),
        metavar="COUNT",
        help="sweep COUNT random connected graphs",
    )
    p_ver.add_argument("--size", type=int, help="vertex count for --random")
    p_ver.add_argument("--seed", type=int, help="seed for --random (default 0)")
    p_ver.add_argument("--fail-fast", action="store_true", help="stop at first failure")
    p_ver.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=max(1, os.cpu_count() or 1),
        help="parallel workers (default: available parallelism); output is "
        "identical for any value",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_se = sub.add_parser(
        "search", parents=[common], help="open-problem searches over corpora"
    )
    p_se.add_argument("--problem", type=int, choices=(1, 2), required=True)
    p_se.add_argument("--max-n", type=_int_at_least(0), required=True)
    p_se.add_argument(
        "--family",
        choices=("trees", "unicyclic", "connected"),
        help="corpus for problem 2 (default unicyclic)",
    )
    p_se.set_defaults(func=_cmd_search)

    p_gen = sub.add_parser(
        "generate", parents=[common], help="emit an edge-list to stdout"
    )
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", choices=FIXTURE_NAMES, help="packaged fixture name")
    source.add_argument("--family", help="parametric family (kernel-gap)")
    p_gen.add_argument("--k", type=int, help="family index for kernel-gap")
    source.add_argument(
        "--random-unicyclic", action="store_true", help="random unicyclic graph"
    )
    p_gen.add_argument("--n", type=int, help="vertex count for --random-unicyclic")
    p_gen.add_argument("--seed", type=int, help="seed (default 0)")
    p_gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (say `| head`): send what is still
        # buffered, and the flush at shutdown, to devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (CorekitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (RecursionError, MemoryError) as exc:
        # the exhaustive searches recurse once per vertex they search, so a
        # raised budget can let an input run them out of stack or memory
        print(
            f"error: input too deep or large for the exhaustive searches ({type(exc).__name__})",
            file=sys.stderr,
        )
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
