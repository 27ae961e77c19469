"""Bounded admission queue with a write-ahead job journal.

Admission control is the progress-space tradeoff of a daemon under
load: an unbounded queue trades memory for the *illusion* of liveness
(every request "accepted", none guaranteed to run), so this queue is
bounded and refuses loudly instead — :meth:`JobQueue.admit` returns an
explicit :class:`Backpressure` ticket (``retry_after`` seconds) the
moment capacity is reached.  What *is* accepted is never lost: the job
is appended to a durable :class:`~repro.durable.journal.RunJournal`
**before** the caller learns it was accepted, so a ``kill -9`` at any
point leaves a journal from which :meth:`JobQueue.recover` rebuilds the
exact pending set, in admission order.  Replayed jobs are deterministic,
so the resumed daemon's verdicts are bit-identical to the ones the dead
daemon would have produced.

Journal records are ``("admit", descriptor)`` and ``("done", key)``
events under one monotonically increasing sequence; compaction folds
them into a checkpoint holding only the still-pending descriptors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from repro import telemetry
from repro.durable.journal import RunJournal
from repro.durable.recovery import RecoveryReport
from repro.serve.protocol import VerifyJob


@dataclass(frozen=True)
class Backpressure:
    """An explicit admission refusal: try again in ``retry_after`` seconds."""

    retry_after: float
    depth: int
    capacity: int

    def describe(self) -> str:
        """Human-readable refusal line for logs and error payloads."""
        return (
            f"queue full ({self.depth}/{self.capacity}); "
            f"retry after {self.retry_after:g}s"
        )


@dataclass(frozen=True)
class Ticket:
    """Proof of admission: the journal sequence number and the job key."""

    seq: int
    key: str


class JobQueue:
    """Bounded FIFO of accepted jobs, journaled write-ahead.

    Thread-safe: socket handler threads :meth:`admit`, the dispatcher
    thread :meth:`take`/:meth:`mark_done`.  The journal itself has a
    single writer (the queue), enforced by the journal's flock.
    """

    def __init__(
        self,
        capacity: int,
        *,
        journal_dir: Optional[Path] = None,
        retry_after: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._pending: Deque[Tuple[int, VerifyJob]] = deque()
        self._in_flight: Dict[int, VerifyJob] = {}
        self._seq = 0
        self._closed = False
        self.accepted_total = 0
        self.completed_total = 0
        self.rejected_total = 0
        self.recovery: Optional[RecoveryReport] = None
        self._journal: Optional[RunJournal] = None
        if journal_dir is not None:
            self._journal = RunJournal(Path(journal_dir))
            self._recover()

    def _recover(self) -> None:
        """Rebuild the pending set from the journal (crash resume)."""
        assert self._journal is not None
        ck, records, report = self._journal.recover()
        self.recovery = report
        pending: Dict[int, VerifyJob] = {}
        if isinstance(ck, dict):
            for seq, descriptor in ck.get("pending", []):
                pending[seq] = VerifyJob.from_wire(descriptor)
        for index, event in records:
            kind, payload = event
            if kind == "admit":
                pending[index] = VerifyJob.from_wire(payload)
            elif kind == "done":
                # payload is the admission seq the completion retires
                pending.pop(payload, None)
        self._seq = self._journal.next_index
        for seq in sorted(pending):
            self._pending.append((seq, pending[seq]))
        if self._pending:
            telemetry.counter(
                "serve.jobs_replayed", len(self._pending), volatile=True
            )

    # -- producer side ----------------------------------------------------

    def admit(self, job: VerifyJob):
        """Accept *job* (journaled first), or return :class:`Backpressure`.

        Returns a :class:`Ticket` on acceptance.  The journal append
        happens before the ticket is handed out: once a caller holds a
        ticket, the job survives any crash of the daemon.
        """
        with self._lock:
            if self._closed:
                return Backpressure(
                    retry_after=self.retry_after,
                    depth=len(self._pending), capacity=self.capacity,
                )
            depth = len(self._pending) + len(self._in_flight)
            if depth >= self.capacity:
                self.rejected_total += 1
                telemetry.counter("serve.rejected_busy", volatile=True)
                return Backpressure(
                    retry_after=self.retry_after,
                    depth=depth, capacity=self.capacity,
                )
            seq = self._seq
            self._seq += 1
            if self._journal is not None:
                self._journal.record(seq, ("admit", job.descriptor()),
                                     sync=True)
            self._pending.append((seq, job))
            self.accepted_total += 1
            telemetry.counter("serve.jobs_accepted")
            telemetry.gauge("serve.queue_depth", len(self._pending))
            self._available.notify()
            return Ticket(seq=seq, key=job.key)

    # -- consumer side ----------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Tuple[int, VerifyJob]]:
        """Pop the oldest pending job, waiting up to *timeout* seconds."""
        with self._available:
            if not self._pending:
                self._available.wait(timeout)
            if not self._pending:
                return None
            seq, job = self._pending.popleft()
            self._in_flight[seq] = job
            telemetry.gauge("serve.queue_depth", len(self._pending))
            return seq, job

    def requeue(self, seq: int) -> None:
        """Put an in-flight job back at the front (dispatcher retry)."""
        with self._lock:
            job = self._in_flight.pop(seq, None)
            if job is not None:
                self._pending.appendleft((seq, job))
                self._available.notify()

    def mark_done(self, seq: int) -> None:
        """Retire an in-flight job (its verdict is in the store)."""
        with self._lock:
            self._in_flight.pop(seq, None)
            self.completed_total += 1
            if self._journal is not None:
                done_seq = self._seq
                self._seq += 1
                self._journal.record(done_seq, ("done", seq), sync=True)
                if self._journal.should_compact():
                    self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        assert self._journal is not None
        pending = [
            (seq, job.descriptor())
            for seq, job in list(self._pending) + sorted(
                self._in_flight.items()
            )
        ]
        self._journal.checkpoint({"pending": sorted(pending)}, self._seq)

    # -- lifecycle ---------------------------------------------------------

    def depth(self) -> int:
        """Jobs admitted but not yet taken by a dispatcher."""
        with self._lock:
            return len(self._pending)

    def in_flight(self) -> int:
        """Jobs taken by a dispatcher but not yet marked done."""
        with self._lock:
            return len(self._in_flight)

    def close(self) -> None:
        """Stop admitting, checkpoint the pending set, release the journal.

        Pending jobs stay journaled: a daemon restarted on the same
        ``--data-dir`` resumes them (the graceful-shutdown analogue of
        crash recovery).
        """
        with self._lock:
            self._closed = True
            if self._journal is not None:
                self._checkpoint_locked()
                self._journal.close()
                self._journal = None
            self._available.notify_all()
