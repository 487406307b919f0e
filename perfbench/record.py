"""Record the stdout digests that checks.py compares against.

    python3 perfbench/record.py

Runs the set-up invocation, both corpus workloads and the analyze-large
inputs of seeds 0..RECORDED_SEEDS-1 against `src/` of this checkout, and
rewrites expected.json. Run it only on a commit whose outputs are known
good: every later run of the benchmark treats a different stdout as a
wrong output.
An analyze output is recorded only if it exits 0 and passes the structural
checks.
"""

from __future__ import annotations

import json
import sys

import checks
import run

RECORDED_SEEDS = 64


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.DEADLINE_S = 1e6
    clock = run.Clock()
    expected = {"analyze": {}}

    def stdout_of(argv: list[str]) -> str:
        code, out, err, _, _ = run.spawn(run.corekit(argv), clock)
        if code != 0:
            raise SystemExit(f"exit {code} from {' '.join(argv)}: {err.strip()}")
        return out

    expected["setup"] = checks.digest(stdout_of(["generate", "--fixture", "k1"]))
    for name in ("verify-unicyclic", "enumerate-connected"):
        (inv,) = run.workload(name, 0, run.VERIFY_WORKERS)
        expected[name] = checks.digest(stdout_of(inv.argv))
    refused = 0
    for seed in range(RECORDED_SEEDS):
        for inp, inv in zip(run.inputs.analyze_inputs(seed),
                            run.workload("analyze-large", seed, 1)):
            code, out, err, _, _ = run.spawn(run.corekit(inv.argv), clock)
            if code == checks.EXIT_BUDGET:
                refused += 1
            elif code != 0 or not checks.analysis_holds(inp, json.loads(out)):
                raise SystemExit(f"seed {seed} {inp.name}: exit {code} {err.strip()}")
            else:
                expected["analyze"][checks.digest(inp.text)] = checks.digest(out)
        print(f"seed {seed}: {len(expected['analyze'])} recorded, {refused} refused",
              file=sys.stderr)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
