"""In-process run of `corekit.cli.main`, optionally traced.

    python3 perfbench/tracer.py SPEC.json

SPEC holds `src` (the directory that contains the corekit package), `argv`
(a list of CLI argument lists, run in order), `traced` and `out`. The run
writes to `out` one JSON object with the wall time of all `main` calls, each
call's exit code, stdout and stderr and, when traced, every span.

Tracing wraps the public functions (module-level functions whose names do
not start with `_`) of the layers `cli`, `graph`, `corpus`, `independence`,
`matching`, `critical`, `unicyclic` and `theorems`, at every place the
package binds them: the defining module, the modules that import them by
name and the package's re-exports. A span is (name, start, end, parent,
resume, outer, extra): `resume` marks one `next()` of a generator, `outer`
that no enclosing span has the same name, and `extra` a per-function
detail of a call that returned (theorem id, subset count, result size).
Spans stay in memory until the run ends. Private helpers are not wrapped,
so their time is self time of the public function that called them.

`independence._alpha_active` is counted, not spanned: every call adds to
`alpha_calls`, and a call on the whole vertex set adds ("alpha", adj) to the
(graph, function) keys, as does each call of `core`, `corona` and
`enumerate_mis`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

LAYERS = ("cli", "graph", "corpus", "independence", "matching", "critical",
          "unicyclic", "theorems")

# per-function detail kept in a span's `extra` when the call returns
_EXTRA_FROM_ARGS = {
    "theorems.check": lambda args: args[0],
    "critical.critical_difference_bruteforce": lambda args: 1 << args[0].n,
}
_EXTRA_FROM_RESULT = {"independence.enumerate_mis", "matching.enumerate_maximum_matchings"}
_KEYED = {"independence.core", "independence.corona", "independence.enumerate_mis"}


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.alpha_calls = 0
        self.keys: set = set()
        self.key_events = 0

    def _open(self, name: str, resume: bool, extra) -> int:
        d = self.depth.get(name, 0)
        self.depth[name] = d + 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, resume, d == 0, extra])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.depth[span[0]] -= 1

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        from_args = _EXTRA_FROM_ARGS.get(name)
        from_result = name in _EXTRA_FROM_RESULT
        keyed = name in _KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                self.key_events += 1
                self.keys.add((name, args[0].adj))
            idx = self._open(name, False, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if from_args:
                self.spans[idx][6] = from_args(args)
            elif from_result:
                self.spans[idx][6] = len(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, False, None)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self._close(idx)
            try:
                while True:
                    idx = self._open(name, True, None)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.spans[idx][6] = 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def count_alpha(self, fn):
        @functools.wraps(fn)
        def wrapper(adj, active, budgets):
            self.alpha_calls += 1
            if active == (1 << len(adj)) - 1:
                self.key_events += 1
                self.keys.add(("alpha", adj))
            return fn(adj, active, budgets)

        return wrapper


def install(rec: Recorder) -> None:
    """Replace every binding of a traced function in the corekit package."""
    modules = [importlib.import_module("corekit")] + [
        importlib.import_module(f"corekit.{layer}") for layer in LAYERS
    ]
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"corekit.{layer}")
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                replace[id(fn)] = rec.wrap(f"{layer}.{attr}", fn)
    alpha_active = importlib.import_module("corekit.independence")._alpha_active
    replace[id(alpha_active)] = rec.count_alpha(alpha_active)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("corekit.cli")
    rec = None
    if spec["traced"]:
        rec = Recorder()
        install(rec)
    results = []
    start = time.perf_counter()
    for argv in spec["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = time.perf_counter() - start
    doc = {"wall": wall, "results": results}
    if rec is not None:
        doc.update(spans=rec.spans, alpha_calls=rec.alpha_calls,
                   distinct_keys=len(rec.keys), key_events=rec.key_events)
    return doc


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    doc = run(spec)
    with open(spec["out"], "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
