"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import pathlib
import signal
import subprocess
import sys
from typing import Optional

import pytest

from repro import (
    OneShotSetAgreement,
    RepeatedSetAgreement,
    AnonymousRepeatedSetAgreement,
    System,
)


def one_shot_system(n: int, m: int, k: int, *, components=None) -> System:
    """One-shot system with distinct inputs ``v0..v{n-1}``."""
    protocol = OneShotSetAgreement(n=n, m=m, k=k, components=components)
    return System(protocol, workloads=[[f"v{i}"] for i in range(n)])


def repeated_system(
    n: int, m: int, k: int, *, instances: int = 2, components=None
) -> System:
    """Repeated system with globally distinct inputs ``p{i}c{t}``."""
    protocol = RepeatedSetAgreement(n=n, m=m, k=k, components=components)
    workloads = [[f"p{i}c{t}" for t in range(instances)] for i in range(n)]
    return System(protocol, workloads=workloads)


def anonymous_system(
    n: int, m: int, k: int, *, instances: int = 2
) -> System:
    protocol = AnonymousRepeatedSetAgreement(n=n, m=m, k=k)
    workloads = [[f"p{i}c{t}" for t in range(instances)] for i in range(n)]
    return System(protocol, workloads=workloads)


def small_parameter_grid(max_n: int = 5):
    """All valid (n, m, k) with 1 <= m <= k < n <= max_n."""
    grid = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for m in range(1, k + 1):
                grid.append((n, m, k))
    return grid


@pytest.fixture
def grid():
    return small_parameter_grid()


REPO_ROOT = pathlib.Path(__file__).parents[1]


def run_bounded(
    script: str, *args: str, timeout: float
) -> Optional[subprocess.CompletedProcess]:
    """Run Python *script* in its own session; ``None`` if it outlives *timeout*.

    For code that may hang: on timeout the whole process group is killed,
    pool workers included.  *script* can import ``repro`` and ``tests``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), str(REPO_ROOT),
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args], cwd=REPO_ROOT, env=env,
        start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
