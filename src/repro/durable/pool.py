"""The one supervised worker pool behind ``repro explore`` and ``repro serve``.

:class:`SupervisedPool` is the retry → rebuild → degrade ladder around the
shared :class:`~repro.durable.retry.BackoffPolicy`; :func:`make_pool` and
:func:`init_worker` build the pool it supervises.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import multiprocessing.pool
import os
import signal
from typing import Any, Callable, Optional, Tuple

from repro import telemetry
from repro.durable.retry import BackoffPolicy
from repro.durable.watchdog import reset_active_watchdogs
from repro.telemetry import heartbeat

__all__ = ["SupervisedPool", "init_worker", "make_pool"]


class WorkerLost(Exception):
    """A pool worker died while a submission was in flight."""


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


def _ring(fd: int, _outcome: Any) -> None:
    """Submission callback: wake the waiting submitter through pipe *fd*.

    Runs on the pool's result-handler thread, once per submission.
    """
    os.write(fd, b"\0")


class SupervisedPool:
    """A worker pool that heals itself, then degrades rather than going dark.

    *build* makes the pool, lazily: at the first submission and after each
    incident.  An incident is any exception from a submission, a timeout
    included: the pool is torn down, :attr:`incidents` counts it, and the
    next attempt sleeps per *policy* and rebuilds.  After
    ``policy.max_retries + 1`` failed attempts, or at once when *build*
    raises ``OSError``, the pool is :attr:`degraded` for good and every
    submission returns ``None``: the caller runs the work in-process.

    The submitter waits on a wake-up pipe, rung by the submission's
    callback, and on the sentinels of the workers alive at submission
    together, so a worker that dies mid-task is an incident at once
    (:class:`WorkerLost`, always retried) rather than a task that is
    never answered.  *timeout* is the backstop for a wedged worker only:
    with ``retry_timeouts=True`` it too is retried; with ``False`` the
    work itself overran, and after the incident
    :class:`multiprocessing.TimeoutError` propagates.
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
        # The built pool's wake-up pipe, (read fd, write fd).
        self._wake: Optional[Tuple[int, int]] = None

    def start(self) -> None:
        """Build the pool now rather than at the first submission."""
        if self._pool is None and not self.degraded:
            try:
                self._pool = self._build()
                self._wake = os.pipe()
            except OSError:
                self.close()
                self.degraded = True

    def map(self, fn: Callable, items: list, *, timeout: Optional[float]) -> Any:
        """``Pool.map`` under the ladder; ``None`` once degraded."""
        return self._run(
            lambda pool, ring: pool.map_async(
                fn, items, callback=ring, error_callback=ring
            ),
            timeout,
        )

    def apply(self, fn: Callable, args: Tuple, *, timeout: Optional[float]) -> Any:
        """``Pool.apply`` under the ladder; ``None`` once degraded."""
        return self._run(
            lambda pool, ring: pool.apply_async(
                fn, args, callback=ring, error_callback=ring
            ),
            timeout,
        )

    def _run(self, submit: Callable, timeout: Optional[float]) -> Any:
        for attempt in self.policy.attempts():
            self.start()
            if self._pool is None:
                return None
            try:
                return self._await(submit, timeout)
            except Exception as exc:  # noqa: BLE001 — any pool failure heals
                self.incidents += 1
                self.close()
                if isinstance(exc, multiprocessing.TimeoutError) and not self.retry_timeouts:
                    raise
            if attempt < self.policy.max_retries:
                self.policy.sleep(attempt)
        self.degraded = True
        return None

    def _await(self, submit: Callable, timeout: Optional[float]) -> Any:
        """Submit once; the result, or raise on a death or the deadline."""
        pool, (reader, writer) = self._pool, self._wake
        # Workers already dead are reaped and replaced by the pool; none
        # of them can hold this task.
        workers = [proc for proc in pool._pool if proc.exitcode is None]
        result = submit(pool, functools.partial(_ring, writer))
        ready = multiprocessing.connection.wait(
            [reader, *(proc.sentinel for proc in workers)], timeout
        )
        if reader in ready:
            os.read(reader, 64)
            # A blocking get, not get(0): the callback runs just before
            # the result is marked ready.
            return result.get()
        if ready:
            raise WorkerLost(f"{len(ready)} pool worker(s) died mid-task")
        raise multiprocessing.TimeoutError

    def close(self) -> None:
        """Terminate and join the pool; safe to call repeatedly.

        The wake-up pipe closes only once the pool is joined, so no late
        callback writes into a closed descriptor whose number was reused.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
        wake, self._wake = self._wake, None
        if wake is not None:
            for fd in wake:
                os.close(fd)
