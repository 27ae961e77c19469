"""The one supervised worker pool behind ``repro explore`` and ``repro serve``.

:class:`SupervisedPool` is the retry → rebuild → degrade ladder around the
shared :class:`~repro.durable.retry.BackoffPolicy`; :func:`make_pool` and
:func:`init_worker` build the pool it supervises.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import signal
from typing import Any, Callable, Optional, Tuple

from repro import telemetry
from repro.durable.retry import BackoffPolicy
from repro.durable.watchdog import reset_active_watchdogs
from repro.telemetry import heartbeat

__all__ = ["SupervisedPool", "init_worker", "make_pool"]


def init_worker() -> None:
    """Pool-worker initializer: quiet signals, fresh per-process state.

    Workers ignore SIGINT: one killed mid-``get()`` dies holding the
    pool's task-queue lock and deadlocks the coordinator's teardown, so
    only the coordinator turns Ctrl-C into a clean exit.  SIGTERM reverts
    to the default, because teardown stops workers with it and a worker
    that inherited a graceful handler would deadlock the join.  Watchdog
    and telemetry state inherited across a fork belongs to the
    coordinator; worker metrics travel back in results instead.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    reset_active_watchdogs()
    telemetry.reset()
    heartbeat.reset()


def make_pool(
    workers: int, initializer: Callable[..., None], initargs: Tuple = ()
) -> multiprocessing.pool.Pool:
    """A pool of *workers* processes, preferring ``fork`` over ``spawn``.

    Under ``fork`` the workers inherit *initargs* in memory, unpickled.
    """
    methods = multiprocessing.get_all_start_methods()
    mp_ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return mp_ctx.Pool(processes=workers, initializer=initializer, initargs=initargs)


class SupervisedPool:
    """A worker pool that heals itself, then degrades rather than going dark.

    *build* makes the pool, lazily: at the first submission and after each
    incident.  An incident is any exception from a submission, a timeout
    included: the pool is torn down, :attr:`incidents` counts it, and the
    next attempt sleeps per *policy* and rebuilds.  After
    ``policy.max_retries + 1`` failed attempts, or at once when *build*
    raises ``OSError``, the pool is :attr:`degraded` for good and every
    submission returns ``None``: the caller runs the work in-process.

    A dead worker's task is never answered, so only a timeout reveals it.
    With ``retry_timeouts=True`` a timeout is such a lost task, and is
    retried; with ``False`` the work itself overran, and after the
    incident :class:`multiprocessing.TimeoutError` propagates.
    """

    def __init__(
        self, build: Callable[[], multiprocessing.pool.Pool],
        policy: BackoffPolicy, *, retry_timeouts: bool,
    ) -> None:
        self._build = build
        self.policy = policy
        self.retry_timeouts = retry_timeouts
        self.incidents = 0
        self.degraded = False
        self._pool: Optional[multiprocessing.pool.Pool] = None

    def start(self) -> None:
        """Build the pool now rather than at the first submission."""
        if self._pool is None and not self.degraded:
            try:
                self._pool = self._build()
            except OSError:
                self.degraded = True

    def map(self, fn: Callable, items: list, *, timeout: Optional[float]) -> Any:
        """``Pool.map`` under the ladder; ``None`` once degraded."""
        return self._run(lambda pool: pool.map_async(fn, items), timeout)

    def apply(self, fn: Callable, args: Tuple, *, timeout: Optional[float]) -> Any:
        """``Pool.apply`` under the ladder; ``None`` once degraded."""
        return self._run(lambda pool: pool.apply_async(fn, args), timeout)

    def _run(self, submit: Callable, timeout: Optional[float]) -> Any:
        for attempt in self.policy.attempts():
            self.start()
            if self._pool is None:
                return None
            try:
                return submit(self._pool).get(timeout)
            except Exception as exc:  # noqa: BLE001 — any pool failure heals
                self.incidents += 1
                self.close()
                if isinstance(exc, multiprocessing.TimeoutError) and not self.retry_timeouts:
                    raise
            if attempt < self.policy.max_retries:
                self.policy.sleep(attempt)
        self.degraded = True
        return None

    def close(self) -> None:
        """Terminate and join the pool; safe to call repeatedly."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
