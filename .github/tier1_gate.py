"""Tier-1 gate: run the test suite and pass only when the failing tests are
exactly the ones expected to fail.

    python .github/tier1_gate.py

One test is red on purpose: ACCEPTANCE 6 (test_criterion_6_kernel_gap_family)
asserts the recorded closed form |core| - |ker| = k - 1 for the kernel-gap
family, while enumeration gives k. It is neither skipped nor marked xfail,
so the gate names it here. Any other failure, a collection error, or this
test passing fails the gate.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

EXPECTED_FAILURES = {"test_criterion_6_kernel_gap_family"}
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=ROOT,
            env=env,
        )
        # pytest exits 0 (all passed) or 1 (some failed) after a full run;
        # any other code means the suite did not run to the end
        if run.returncode not in (0, 1):
            print(f"tier-1 gate: pytest exited {run.returncode}")
            return 1
        cases = list(ET.parse(report).iter("testcase"))
    failing = {
        case.get("name")
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    print(f"tier-1 gate: {len(cases)} tests, failing: {sorted(failing)}")
    if failing != EXPECTED_FAILURES:
        print(f"tier-1 gate: expected exactly {sorted(EXPECTED_FAILURES)} to fail")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
