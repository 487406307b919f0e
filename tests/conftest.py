"""Shared corpora, computed once per session, plus the acceptance summary."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from corekit import (
    enumerate_connected_graphs,
    enumerate_trees,
    enumerate_unicyclic,
    fixture,
    FIXTURE_NAMES,
)

import helpers

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    """Let the CLI tests' `python -m corekit` child processes import the same
    working tree that pytest's `pythonpath` setting gives this process."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


@pytest.fixture
def forked_pids(monkeypatch):
    """The pids of the processes a test forks, each of which must be reaped,
    and so no longer running, when the test ends."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="session")
def all_fixtures():
    """name -> Graph for every packaged fixture."""
    return {name: fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def trees_by_n():
    """n -> list of free trees, n = 1..12."""
    return {n: list(enumerate_trees(n)) for n in range(1, 13)}


@pytest.fixture(scope="session")
def unicyclic_by_n():
    """n -> list of pairwise non-isomorphic unicyclic graphs, n = 3..12."""
    return {n: list(enumerate_unicyclic(n)) for n in range(3, 13)}


@pytest.fixture(scope="session")
def connected_by_n():
    """n -> list of pairwise non-isomorphic connected graphs, n = 1..7."""
    return {n: list(enumerate_connected_graphs(n)) for n in range(1, 8)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
