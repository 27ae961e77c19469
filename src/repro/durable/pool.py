"""The one supervised worker pool behind ``repro explore`` and ``repro serve``.

:class:`WorkerSet` is the pool, read in the coordinator's own thread;
:class:`SupervisedPool` is the retry → rebuild → degrade ladder around it
and the shared :class:`~repro.durable.retry.BackoffPolicy`.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import pickle
import signal
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.durable.retry import BackoffPolicy
from repro.durable.watchdog import reset_active_watchdogs
from repro.telemetry import heartbeat

__all__ = ["SupervisedPool", "WorkerSet", "init_worker", "make_pool"]


class WorkerLost(Exception):
    """A pool worker died while a submission was in flight."""


def init_worker() -> None:
    """Pool-worker initializer: quiet signals, fresh per-process state.

    Workers ignore SIGINT, which a terminal sends the whole process group,
    so that only the coordinator answers Ctrl-C: it terminates and joins
    every worker, then exits.  SIGTERM reverts to the default, because
    teardown stops workers with it.  Watchdog and telemetry state
    inherited across a fork belongs to the coordinator; worker metrics
    travel back in results instead.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    reset_active_watchdogs()
    telemetry.reset()
    heartbeat.reset()


def _serve(conn: Any, stale: Tuple, initializer: Callable[..., None], initargs: Tuple) -> None:
    """Worker loop: answer each ``(fn, args)`` on *conn* with ``(ok, value)``.

    Closing the inherited coordinator ends in *stale* lets each side of
    a pipe see EOF when the other goes.
    """
    for end in stale:
        end.close()
    initializer(*initargs)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:  # noqa: BLE001 — re-raised in the submitter
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return  # the coordinator is gone
        except Exception as exc:  # noqa: BLE001 — an unpicklable outcome
            conn.send((False, pickle.PicklingError(f"task outcome not sent: {exc!r}")))


class _Submission:
    """Submitted tasks; ``get(timeout)`` runs them in the caller's thread."""

    def __init__(self, run: Callable[[Optional[float]], Any]) -> None:
        self.get = run


class WorkerSet:
    """Daemonic workers, one duplex pipe each, driven by the submitter.

    A submission's ``get`` sends each task to an idle worker, one in
    flight per worker (which is in ``recv`` when it arrives, so neither
    side blocks on the other), and reads results in the calling thread
    as one wait on the busy pipes and sentinels reports them.  A death
    mid-task raises :class:`WorkerLost`, an empty wait past *timeout*
    :class:`multiprocessing.TimeoutError`; a task's own exception is
    re-raised once all in flight are back, after which the set is still
    usable.  After any other exception, terminate it.
    """

    def __init__(
        self, mp_ctx: Any, workers: int, initializer: Callable[..., None], initargs: Tuple
    ) -> None:
        self._workers: List[Tuple[Any, Any]] = []  # (process, our pipe end)
        try:
            for _ in range(workers):
                ours, theirs = mp_ctx.Pipe()
                with theirs:
                    stale = (*(conn for _, conn in self._workers), ours)
                    proc = mp_ctx.Process(target=_serve, daemon=True,
                                          args=(theirs, stale, initializer, initargs))
                    try:
                        proc.start()
                    except BaseException:
                        ours.close()
                        raise
                self._workers.append((proc, ours))
        except BaseException:
            self.terminate()
            raise

    def map_async(self, fn: Callable, items: list) -> _Submission:
        """``fn(item)`` for each of *items*, run when its ``get`` is called."""
        return _Submission(functools.partial(self._gather, [(fn, (item,)) for item in items]))

    def map(self, fn: Callable, items: list) -> list:
        """``fn(item)`` for each of *items*, in order, with no timeout."""
        return self.map_async(fn, items).get()

    def apply_async(self, fn: Callable, args: Tuple) -> _Submission:
        """``fn(*args)`` in one worker, run when its ``get`` is called."""
        return _Submission(lambda timeout=None: self._gather([(fn, args)], timeout)[0])

    def _gather(self, tasks: list, timeout: Optional[float] = None) -> list:
        deadline = None if timeout is None else time.monotonic() + timeout
        results: list = [None] * len(tasks)
        todo, idle = deque(enumerate(tasks)), list(self._workers)
        busy: Dict[Any, Tuple[int, Any]] = {}  # our pipe end -> (task index, process)
        error: Optional[Exception] = None
        while busy or (todo and error is None):
            while todo and idle and error is None:
                proc, conn = idle.pop()
                index, task = todo.popleft()
                try:
                    conn.send(task)
                except OSError as exc:
                    raise WorkerLost(f"pool worker {proc.pid} is gone") from exc
                busy[conn] = (index, proc)
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = multiprocessing.connection.wait(
                [*busy, *(proc.sentinel for _, proc in busy.values())], left
            )
            if not ready:
                raise multiprocessing.TimeoutError
            for conn, (index, proc) in list(busy.items()):
                # The pipe before the sentinel: a worker may send its
                # result and then die.
                if conn in ready or (proc.sentinel in ready and conn.poll()):
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        raise WorkerLost(f"pool worker {proc.pid} died mid-task") from None
                    del busy[conn]
                    idle.append((proc, conn))
                    if ok:
                        results[index] = value
                    elif error is None:
                        error = value
                elif proc.sentinel in ready:
                    raise WorkerLost(f"pool worker {proc.pid} died mid-task")
        if error is not None:
            raise error
        return results

    def terminate(self) -> None:
        """Stop, reap and release every worker; safe to call repeatedly."""
        workers, self._workers = self._workers, []
        for proc, conn in workers:
            conn.close()
            proc.terminate()
        for proc, _ in workers:
            proc.join()
            proc.close()


def make_pool(
    workers: int, initializer: Callable[..., None], initargs: Tuple = ()
) -> WorkerSet:
    """A pool of *workers* processes, preferring ``fork`` over ``spawn``.

    Under ``fork`` the workers inherit *initargs* in memory, unpickled.
    """
    methods = multiprocessing.get_all_start_methods()
    mp_ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return WorkerSet(mp_ctx, workers, initializer, initargs)


class SupervisedPool:
    """A worker pool that heals itself, then degrades rather than going dark.

    *build* makes the pool, lazily: at the first submission and after each
    incident.  An incident is any exception from a submission, a timeout
    included: the pool is torn down, :attr:`incidents` counts it, and the
    next attempt sleeps per *policy* and rebuilds.  After
    ``policy.max_retries + 1`` failed attempts, or at once when *build*
    raises ``OSError``, the pool is :attr:`degraded` for good and every
    submission returns ``None``: the caller runs the work in-process.

    A :class:`WorkerSet` notices a worker that dies mid-task at once
    (:class:`WorkerLost`, always retried) rather than waiting on a task
    that is never answered.  *timeout* is the backstop for a wedged
    worker only: with ``retry_timeouts=True`` it too is retried; with
    ``False`` the work itself overran, and after the incident
    :class:`multiprocessing.TimeoutError` propagates.
    """

    def __init__(
        self, build: Callable[[], WorkerSet],
        policy: BackoffPolicy, *, retry_timeouts: bool,
    ) -> None:
        self._build = build
        self.policy = policy
        self.retry_timeouts = retry_timeouts
        self.incidents = 0
        self.degraded = False
        self._pool: Optional[WorkerSet] = None

    def start(self) -> None:
        """Build the pool now rather than at the first submission."""
        if self._pool is None and not self.degraded:
            try:
                self._pool = self._build()
            except OSError:
                self.degraded = True

    def map(self, fn: Callable, items: list, *, timeout: Optional[float]) -> Any:
        """``map`` under the ladder, results in order; ``None`` once degraded."""
        return self._run(lambda pool: pool.map_async(fn, items), timeout)

    def apply(self, fn: Callable, args: Tuple, *, timeout: Optional[float]) -> Any:
        """``fn(*args)`` in a worker under the ladder; ``None`` once degraded."""
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
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
