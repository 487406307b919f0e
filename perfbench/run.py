"""corekit benchmark: whole CLI runs, checked, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the corekit package under `src/` of the
checkout that holds this file, started as `python -m corekit`. With
`--trace 0` each invocation is a separate process, and the run repeats the
workload's invocations (one pass) until `--seconds` is used up, reporting
the median pass. With `--trace 1` it alternates an untraced and a traced
in-process pass of `corekit.cli.main` (see tracer.py) and reports per-layer
figures. Every output is checked (see checks.py), and every time is scaled
to a reference CPU speed measured in the same run (see REF_LOOP_S).
Human-readable lines come first, then a JSON line with the scale factor and
the unscaled medians; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See README.md for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import inputs
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# children may cache bytecode (under src/, as an installed package would),
# so that only the unmeasured warm-up run compiles
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = str(SRC)

# every child process ends within this many seconds of the start of a run
DEADLINE_S = 165.0
SETUP_SAMPLES = 9
VERIFY_WORKERS = 2
# pinned, not read from corekit.theorems: the metric names must not change
# when a later commit adds or renames a checker
THEOREM_IDS = ("LEM1A", "LEM1B", "LEM2", "TH11", "TH1", "TH2A", "TH2B", "TH3",
               "TH4A", "TH4B", "TH12", "MAIN", "KERCORE", "ZHANG")
CORPUS_STREAMS = {"corpus.family_items", "corpus.enumerate_trees",
                  "corpus.enumerate_unicyclic", "corpus.enumerate_connected_graphs"}


class BenchError(Exception):
    """The run cannot produce a result: a child runs past the deadline, or
    the set-up invocation or an in-process run fails."""


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation, its output check and the graphs it completes."""

    argv: list[str]
    check: Callable[[int, str], str]
    graphs: int


def workload(name: str, seed: int, workers: int) -> list[Invocation]:
    """The invocations of one pass; writes the analyze-large inputs."""
    if name == "verify-unicyclic":
        return [Invocation(
            ["verify", "--theorem", "all", "--family", "unicyclic", "--max-n", "10",
             "--workers", str(workers)],
            checks.verify_unicyclic, 1040)]
    if name == "enumerate-connected":
        return [Invocation(
            ["search", "--problem", "2", "--family", "connected", "--max-n", "7"],
            checks.enumerate_connected, checks.CONNECTED_UP_TO_7)]
    out = []
    for inp in inputs.analyze_inputs(seed):
        path = WORK / f"{inp.name}.txt"
        path.write_text(inp.text, encoding="utf-8")
        out.append(Invocation(
            ["analyze", "--format", "json", str(path.relative_to(ROOT))],
            partial(checks.analyze, inp), 1))
    return out


WORKLOADS = ("verify-unicyclic", "analyze-large", "enumerate-connected")


# On a shared machine the CPU speed drifts, by up to 1.5x over minutes on
# the 2-vCPU machine this benchmark was defined on, and a 40-second run cannot
# average that out. So each run also times a fixed pure-Python loop after
# every child, and every reported time is scaled by REF_LOOP_S / (median loop
# time of the run): seconds at the speed at which the loop takes REF_LOOP_S,
# about its median there. Only ratios between commits matter.
REF_LOOP_S = 0.1
LOOP_N = 1_500_000
LOOP_SHARE = 0.08


def _loop_time() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return time.perf_counter() - t0


class Clock:
    """Time left before the run's deadline, and the reference loop's times."""

    def __init__(self):
        self.start = time.perf_counter()
        self.loops: list[float] = []

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def probe(self, busy_s: float) -> None:
        """Time the loop at least once and for about LOOP_SHARE of busy_s."""
        spent = 0.0
        while not spent or spent < LOOP_SHARE * busy_s:
            self.loops.append(_loop_time())
            spent += self.loops[-1]

    def scale(self) -> float:
        return REF_LOOP_S / statistics.median(self.loops)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], clock: Clock):
    """Run one child to completion. Returns (exit code, stdout, stderr, wall
    seconds, rusage of that child and its reaped descendants). The child
    leads its own process group, so a timeout or an interrupt kills its pool
    workers too."""
    limit = clock.left()
    if limit <= 0:
        raise BenchError("out of time before starting a child")
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=ENV,
                                start_new_session=True)
        timer = threading.Timer(limit, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= limit:
        raise BenchError(f"child did not finish in {limit:.0f} s: {' '.join(args)}")
    clock.probe(wall)
    return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), wall, usage)


def corekit(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "corekit", *argv]


def measure_setup(clock: Clock) -> list[float]:
    """Wall times of the trivial invocation; the first, which may compile
    bytecode, is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        code, out, err, wall, _ = spawn(corekit(["generate", "--fixture", "k1"]), clock)
        if code != 0 or checks.digest(out) != checks.EXPECTED["setup"]:
            raise BenchError(f"set-up invocation failed (exit {code}): {err.strip()}")
        if i:
            samples.append(wall)
    return samples


def fits(clock: Clock, began: float, walls: list[float], seconds: int) -> bool:
    """Whether another pass as long as the median so far ends in time."""
    nxt = statistics.median(walls) * (1 + LOOP_SHARE)
    return (time.perf_counter() - began + nxt <= seconds
            and nxt < clock.left() - 5)


# -- untraced run ---------------------------------------------------------------


def run_pass(invs: list[Invocation], clock: Clock) -> dict:
    p = {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "graphs": 0,
         "outcomes": defaultdict(int)}
    for inv in invs:
        code, out, _, wall, usage = spawn(corekit(inv.argv), clock)
        outcome = inv.check(code, out)
        p["outcomes"][outcome] += 1
        p["wall"] += wall
        p["cpu"] += usage.ru_utime + usage.ru_stime
        p["rss_mb"] = max(p["rss_mb"], usage.ru_maxrss / 1024)
        if outcome == checks.OK:
            p["graphs"] += inv.graphs
    return p


def untraced(name: str, seed: int, seconds: int, clock: Clock):
    invs = workload(name, seed, VERIFY_WORKERS)
    setup = measure_setup(clock)
    passes = []
    began = time.perf_counter()
    while not passes or fits(clock, began, [p["wall"] for p in passes], seconds):
        passes.append(run_pass(invs, clock))
    total = defaultdict(int)
    for p in passes:
        for outcome, k in p["outcomes"].items():
            total[outcome] += k
    attempted = sum(total.values())
    samples = {
        "wall_s": ("s", [p["wall"] for p in passes]),
        "graphs_per_s": ("1/s", [p["graphs"] / p["wall"] for p in passes]),
        "cpu_s": ("s", [p["cpu"] for p in passes]),
        "peak_rss_mb": ("MB", [max(p["rss_mb"] for p in passes)]),
        "completed_ratio": ("ratio", [total[checks.OK] / attempted]),
        "setup_s": ("s", setup),
    }
    print(f"workload {name}: seed {seed}, {len(passes)} passes of {len(invs)} "
          f"invocation(s), {SETUP_SAMPLES} set-up samples")
    print(f"failed_ratio {(attempted - total[checks.OK]) / attempted:.4f} ratio "
          f"({attempted - total[checks.OK]} of {attempted} invocations: "
          f"{total[checks.REFUSED]} refused, {total[checks.WRONG]} wrong)")
    return samples, attempted, attempted - total[checks.OK], total[checks.WRONG] == 0


# -- traced run -----------------------------------------------------------------


def in_process(argvs: list[list[str]], traced: bool, clock: Clock) -> dict:
    tag = "traced" if traced else "plain"
    spec_path, out_path = WORK / f"{tag}.spec.json", WORK / f"{tag}.spans.json"
    spec = {"src": str(SRC), "argv": argvs, "traced": traced, "out": str(out_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err, _, _ = spawn([sys.executable, str(HERE / "tracer.py"), str(spec_path)], clock)
    if code != 0:
        raise BenchError(f"in-process run failed (exit {code}): {err.strip()[-500:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    + ["independence.alpha_calls", "independence.core_s", "independence.corona_s",
       "independence.enumerate_mis_s", "independence.mis_found",
       "independence.distinct_ratio",
       "critical.ker_s", "critical.d_c_s", "critical.sweep_calls", "critical.sweep_s",
       "critical.subsets_swept",
       "matching.mu_calls", "matching.mu_s", "matching.enumerate_maximum_matchings_s",
       "matching.matchings_found", "matching.saturating_matching_s",
       "corpus.enumerate_s", "corpus.graphs_yielded",
       "graph.parse_s", "graph.serialize_s", "graph.classify_shape_calls",
       "unicyclic.decompose_s"]
    + [f"theorems.check_s.{tid}" for tid in THEOREM_IDS]
    + ["theorems.sweep_self_s", "trace.wall_s", "trace.overhead_ratio"]
)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer figures from one traced run's spans (all but
    trace.overhead_ratio, which needs the untraced run too)."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m = dict.fromkeys(PER_LAYER[:-1], 0)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    for i, (name, t0, t1, parent, resume, outer, ext) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = t1 - t0
        m[f"{layer}.self_s"] += dur - child[i]
        if not resume:
            m[f"{layer}.calls"] += 1
            calls[name] += 1
        if outer:
            inclusive[name] += dur
        if name == "theorems.check" and ext is not None:
            m[f"theorems.check_s.{ext}"] += dur
        elif name == "theorems.sweep":
            m["theorems.sweep_self_s"] += dur - child[i]
        elif isinstance(ext, int) and not resume:
            extra[name] += ext
        if name in CORPUS_STREAMS and (parent < 0 or spans[parent][0] not in CORPUS_STREAMS):
            m["corpus.enumerate_s"] += dur
            if resume and ext == 1:
                m["corpus.graphs_yielded"] += 1
    m["independence.alpha_calls"] = doc["alpha_calls"]
    m["independence.core_s"] = inclusive["independence.core"]
    m["independence.corona_s"] = inclusive["independence.corona"]
    m["independence.enumerate_mis_s"] = inclusive["independence.enumerate_mis"]
    m["independence.mis_found"] = extra["independence.enumerate_mis"]
    m["independence.distinct_ratio"] = (
        doc["distinct_keys"] / doc["key_events"] if doc["key_events"] else 1.0)
    m["critical.ker_s"] = inclusive["critical.ker"]
    m["critical.d_c_s"] = inclusive["critical.critical_difference"]
    m["critical.sweep_calls"] = calls["critical.critical_difference_bruteforce"]
    m["critical.sweep_s"] = inclusive["critical.critical_difference_bruteforce"]
    m["critical.subsets_swept"] = extra["critical.critical_difference_bruteforce"]
    m["matching.mu_calls"] = calls["matching.mu"]
    m["matching.mu_s"] = inclusive["matching.mu"]
    m["matching.enumerate_maximum_matchings_s"] = inclusive["matching.enumerate_maximum_matchings"]
    m["matching.matchings_found"] = extra["matching.enumerate_maximum_matchings"]
    m["matching.saturating_matching_s"] = inclusive["matching.saturating_matching"]
    m["graph.parse_s"] = inclusive["graph.parse_edge_list"]
    m["graph.serialize_s"] = inclusive["graph.serialize"]
    m["graph.classify_shape_calls"] = calls["graph.classify_shape"]
    m["unicyclic.decompose_s"] = inclusive["unicyclic.decompose"]
    m["trace.wall_s"] = doc["wall"]
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s") or ".check_s." in metric:
        return "s"
    return "count"


def traced(name: str, seed: int, seconds: int, clock: Clock):
    invs = workload(name, seed, 1)
    argvs = [inv.argv for inv in invs]
    runs = []
    attempted = failed = 0
    correct = True
    began = time.perf_counter()
    while not runs or fits(clock, began, [r[2] for r in runs], seconds):
        t0 = time.perf_counter()
        plain = in_process(argvs, False, clock)
        spanned = in_process(argvs, True, clock)
        for doc in (plain, spanned):
            for inv, res in zip(invs, doc["results"]):
                outcome = inv.check(res["code"], res["stdout"])
                attempted += 1
                failed += outcome != checks.OK
                correct &= outcome != checks.WRONG
        runs.append((plain, spanned, time.perf_counter() - t0))
    per_run = [layer_metrics(spanned) for _, spanned, _ in runs]
    for m, (plain, spanned, _) in zip(per_run, runs):
        m["trace.overhead_ratio"] = spanned["wall"] / plain["wall"]
    samples = {metric: (unit_of(metric), [m[metric] for m in per_run])
               for metric in PER_LAYER}
    self_sum = statistics.median(sum(m[f"{l}.self_s"] for l in LAYERS) for m in per_run)
    wall = statistics.median(m["trace.wall_s"] for m in per_run)
    print(f"workload {name}: seed {seed}, {len(runs)} untraced+traced in-process "
          f"pairs, --workers 1")
    print(f"per-layer self time sums to {self_sum:.4f} s of {wall:.4f} s traced wall "
          f"({self_sum / wall:.4f})")
    return samples, attempted, failed, correct


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corekit" / "__init__.py").is_file():
        print(f"error: no corekit package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # turn SIGTERM into SystemExit, so that spawn kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    clock = Clock()
    run = traced if args.trace else untraced
    try:
        samples, attempted, failed, correct = run(
            args.workload, args.seed, args.seconds, clock)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scale = clock.scale()
    print(f"reference loop: median {statistics.median(clock.loops):.5f} s of "
          f"n={len(clock.loops)}; times below are scaled by {scale:.4f}")
    metrics, unscaled = {}, {}
    for metric, (unit, values) in samples.items():
        value = statistics.median(values)
        scaled = value * scale if unit == "s" else value / scale if unit == "1/s" else value
        metrics[metric] = {"value": scaled, "unit": unit}
        unscaled[metric] = value
        print(f"{metric} {scaled:.6g} {unit} (unscaled median {value:.6g} of "
              f"n={len(values)}, range {min(values):.6g}..{max(values):.6g})")
    # the program's own figures, for a reader who keeps only the JSON lines
    print(json.dumps({"scale": scale, "unscaled": unscaled}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
