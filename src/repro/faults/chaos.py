"""Chaos hooks for the explore engine: deterministic worker death.

The campaign subsystem injects faults into the *model* (registers,
crashes); this module injects faults into the *engine* itself, to exercise
the self-healing path of :func:`repro.explore.checker.explore_safety`:
death detection, bounded retry, and degradation to serial expansion.

Worker death is armed through a **token directory**: each token file is a
license for exactly one pool worker to die.  A worker entering
``_expand_chunk`` calls :meth:`WorkerKill.maybe_kill`; if it atomically
claims a token (``os.unlink`` — the filesystem arbitrates races between
workers), it exits hard with ``os._exit``, mimicking an OOM-kill or
segfault: no exception propagates and the in-flight task is simply lost;
the coordinator notices through the dead worker's process sentinel.

Arming *k* tokens therefore produces exactly *k* deaths:

* ``k == 1`` — one retry recovers and the run completes with
  ``worker_retries > 0`` and ``degraded=False``;
* ``k > max_retries`` (armed faster than the pool can be rebuilt) — the
  coordinator gives up on the pool and degrades to serial expansion,
  ``degraded=True``.

Only *daemon* processes die: under the ``fork`` start method the
coordinator inherits the worker context too, and killing it would defeat
the very resilience being tested.  Pool workers are daemonic; the
coordinator (and the serial fallback running inside it) never is.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, slots=True)
class WorkerKill:
    """Kill a pool worker per available token in *token_dir*.  Picklable."""

    token_dir: str

    def maybe_kill(self) -> None:
        """Die hard if running in a pool worker and a token can be claimed."""
        if not multiprocessing.current_process().daemon:
            return
        try:
            tokens = sorted(os.listdir(self.token_dir))
        except OSError:
            return
        for token in tokens:
            try:
                os.unlink(os.path.join(self.token_dir, token))
            except OSError:
                continue  # another worker claimed it first
            os._exit(1)


def arm_worker_kills(token_dir: str, count: int) -> WorkerKill:
    """Create *count* death tokens in *token_dir* and return the hook."""
    directory = Path(token_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for existing in directory.iterdir():
        existing.unlink()
    for index in range(count):
        (directory / f"kill-{index:04d}").touch()
    return WorkerKill(token_dir=str(directory))
