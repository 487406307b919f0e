"""Correctness gate: classify each invocation's outcome as ok, refused or wrong.

An exit code of 3 (budget exceeded) is a refusal, a defined outcome of the
CLI contract. Any other non-zero exit, and an exit 0 whose stdout fails a
check, is a wrong output. Stdouts that exit 0 at the commit that recorded
`expected.json` must match its digests byte for byte; analyze outputs whose
input has no recorded digest are checked against identities that hold for
every graph and against the facts the input's construction guarantees.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

OK, REFUSED, WRONG = "ok", "refused", "wrong"
EXIT_BUDGET = 3

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# A001349: connected graphs on n = 1..7 vertices
CONNECTED_UP_TO_7 = 1 + 1 + 2 + 6 + 21 + 112 + 853


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(code: int, good: bool) -> str:
    if code == EXIT_BUDGET:
        return REFUSED
    return OK if code == 0 and good else WRONG


def verify_unicyclic(code: int, stdout: str) -> str:
    lines = set(stdout.splitlines())
    good = (
        digest(stdout) == EXPECTED["verify-unicyclic"]
        and {"result: all hold", "graphs tested: 1040", "checks run: 14560"} <= lines
    )
    return _outcome(code, good)


def enumerate_connected(code: int, stdout: str) -> str:
    buckets = re.findall(r"^sum-defect \d+: (\d+) graphs$", stdout, re.MULTILINE)
    good = (
        digest(stdout) == EXPECTED["enumerate-connected"]
        and sum(map(int, buckets)) == CONNECTED_UP_TO_7
    )
    return _outcome(code, good)


def analysis_holds(inp, rec: dict) -> bool:
    """Identities of any analyze record, plus the input's known facts."""
    core, corona, ker = set(rec["core"]), set(rec["corona"]), set(rec["ker"])
    a, m, n = rec["alpha"], rec["mu"], rec["n"]
    shape = rec["shape"]
    uni = rec["unicyclic"]
    return (
        n == inp.n
        and rec["m"] == inp.m
        and shape == {"kind": inp.kind, "connected": True, "bipartite": inp.bipartite}
        and ker <= core <= corona
        and len(core) <= a <= len(corona)
        and rec["ke"] == (a + m == n)
        and a + m <= n
        and rec["sum_defect"] == len(corona) + len(core) - 2 * a
        and (not rec["ke"] or rec["sum_defect"] == 0)
        and rec["d_c"] >= 0
        and all(rec[key] == value for key, value in inp.facts.items())
        and (uni is None) == (inp.cycle_len is None)
        and (uni is None or len(uni["cycle"]) == inp.cycle_len)
    )


def analyze(inp, code: int, stdout: str) -> str:
    if code != 0:
        return _outcome(code, False)
    known = EXPECTED["analyze"].get(digest(inp.text))
    try:
        good = analysis_holds(inp, json.loads(stdout))
    except (ValueError, KeyError, TypeError):
        good = False
    return _outcome(code, good and (known is None or known == digest(stdout)))
