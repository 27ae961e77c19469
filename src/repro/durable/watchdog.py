"""Watchdogs: turn preemption into a checkpoint, not a lost run.

Long verification workloads die three ways in practice: a scheduler
deadline (batch queue walltime), the OOM killer, and ``SIGTERM`` from an
orchestrator draining the host.  All three give *some* notice — the
deadline and the memory ceiling are knowable in advance, and SIGTERM is
the notice — so a run that polls a :class:`Watchdog` at its unit
boundaries (between exploration batches, between campaign trials) can
checkpoint and exit cleanly instead of being shot mid-write.

The contract:

* ``Watchdog(deadline=…, max_rss_mb=…)`` is armed by entering it as a
  context manager (which also registers it for SIGTERM delivery);
* the work loop calls :meth:`Watchdog.poll` at each consistent point; a
  non-``None`` return (``"deadline"``, ``"rss"``, ``"sigterm"``) means
  *checkpoint now and stop* — the loop records the reason and returns;
* :func:`install_sigterm_handler` (installed by the CLI dispatcher)
  routes SIGTERM to every registered watchdog; with **no** watchdog
  active it raises :class:`Terminated` instead, so commands with nothing
  to checkpoint still die promptly — and with exit code 143 either way.

``Terminated`` derives from ``BaseException`` (like
``KeyboardInterrupt``): it must not be swallowed by ``except Exception``
handlers anywhere between the signal and the exit code.

Pool worker processes reset SIGTERM to the default disposition (see
:func:`repro.durable.pool.init_worker`): pool
teardown stops workers *with* SIGTERM, and a worker that graciously
"checkpoints" instead of dying would deadlock the coordinator's join.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional

#: Reasons a watchdog can request a stop, in poll-priority order.
SIGTERM_REASON = "sigterm"
DEADLINE_REASON = "deadline"
RSS_REASON = "rss"


class Terminated(BaseException):
    """SIGTERM arrived with no checkpointable run active.

    Deliberately not a :class:`~repro.errors.ReproError` (and not even an
    ``Exception``): termination must reach the process exit path through
    any library-level ``except Exception`` clauses.
    """


def current_rss_mb() -> float:
    """This process's resident set size in MiB (best effort, never raises).

    Reads ``/proc/self/status`` (current RSS) where available, falling
    back to ``resource.getrusage`` (peak RSS) elsewhere; returns 0.0 when
    neither source works, which disables RSS ceilings rather than
    tripping them.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes.
        return peak / 1024.0 if os.uname().sysname != "Darwin" else peak / 2**20
    except Exception:  # noqa: BLE001 — RSS is advisory, never fatal
        return 0.0


#: Watchdogs currently armed in this process; SIGTERM fans out to all.
_ACTIVE: List["Watchdog"] = []


class Watchdog:
    """Deadline + RSS ceiling + SIGTERM flag, polled at unit boundaries."""

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_rss_mb: Optional[float] = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if max_rss_mb is not None and max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be positive, got {max_rss_mb}")
        self.deadline = deadline
        self.max_rss_mb = max_rss_mb
        self.started: Optional[float] = None
        self._stop_reason: Optional[str] = None

    def request_stop(self, reason: str) -> None:
        """Externally request a stop (the SIGTERM path); first reason wins."""
        if self._stop_reason is None:
            self._stop_reason = reason

    def poll(self) -> Optional[str]:
        """The reason to checkpoint-and-stop, or ``None`` to keep working.

        RSS comes from the shared throttled heartbeat
        (:mod:`repro.telemetry.heartbeat`), which also publishes the sample
        as the volatile gauges live renderers read — one ``/proc`` read
        serves the ceiling check and every display.  The cache can delay
        an RSS-ceiling trip by at most its ``max_age`` (0.5s), well under
        any poll cadence the ceiling is meant to protect.
        """
        # Imported lazily: telemetry.heartbeat imports this module for the
        # raw probe, so a top-level import here would be circular.
        from repro.telemetry import heartbeat

        if self._stop_reason is not None:
            return self._stop_reason
        elapsed: Optional[float] = None
        if self.started is not None:
            elapsed = time.monotonic() - self.started
        if self.deadline is not None:
            if (elapsed if elapsed is not None else 0.0) >= self.deadline:
                self._stop_reason = DEADLINE_REASON
                return self._stop_reason
        rss = heartbeat.publish(elapsed_s=elapsed)
        if self.max_rss_mb is not None and rss >= self.max_rss_mb:
            self._stop_reason = RSS_REASON
            return self._stop_reason
        return None

    def __enter__(self) -> "Watchdog":
        if self.started is None:
            self.started = time.monotonic()
        # Per-process SIGTERM registry by design: each process arms its
        # own watchdogs, and forked children clear inherited entries via
        # reset_active_watchdogs() in their pool initializer.
        _ACTIVE.append(self)  # repro: allow(CONC001)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            # Per-process registry; see __enter__.
            _ACTIVE.remove(self)  # repro: allow(CONC001)
        except ValueError:
            pass


def active_watchdogs() -> List[Watchdog]:
    """The watchdogs currently armed in this process (a copy)."""
    return list(_ACTIVE)


def reset_active_watchdogs() -> None:
    """Clear the registry — for forked children and test isolation."""
    # This *is* the fork-divergence remedy CONC001 asks for: pool
    # initializers call it so children drop inherited registrations.
    _ACTIVE.clear()  # repro: allow(CONC001)


def deliver_sigterm() -> None:
    """Route a SIGTERM: flag every active watchdog, or die loudly.

    With at least one armed watchdog the signal becomes a graceful
    checkpoint request and the work loop exits on its own; with none,
    there is nothing to checkpoint and :class:`Terminated` propagates.
    """
    if _ACTIVE:
        for watchdog in _ACTIVE:
            watchdog.request_stop(SIGTERM_REASON)
        return
    raise Terminated()


def install_sigterm_handler():
    """Install the graceful SIGTERM handler; returns the previous handler.

    Only meaningful in the main thread of the main interpreter (where
    Python delivers signals); callers should restore the returned handler
    when their scope ends, so embedding the CLI in a larger process does
    not permanently hijack SIGTERM.
    """

    def _handler(signum, frame):  # noqa: ARG001 — signal handler signature
        deliver_sigterm()

    return signal.signal(signal.SIGTERM, _handler)
