"""The append-only run journal and its checkpoint-compacted run log.

Layout of a journal file::

    REPROJNL\\x01                      9-byte header (magic + version)
    [len:u64be][blake2b-128][payload]  record 0
    [len:u64be][blake2b-128][payload]  record 1
    ...

Records are length-prefixed and individually checksummed, so a scan can
classify every possible on-disk state without raising:

* a **valid prefix** — records whose digests verify, in order;
* a **torn tail** — a final record cut mid-write by a crash (the length
  prefix promises more bytes than the file holds);
* a **corrupt record** — bytes present but digest mismatch (bit rot,
  overwrite).  Scanning stops at the first torn/corrupt record: nothing
  after an unverifiable region can be trusted, because record boundaries
  themselves are data.

Appends go to the OS immediately (``flush``), so the journal survives
``kill -9`` of the process; ``fsync`` is reserved for checkpoints and
close, keeping the per-record cost to one buffered write (power loss can
cost un-fsynced suffix records — bounded, reported, never corrupting).

A journal has exactly **one writer**.  Two processes appending to the
same file would interleave frames and corrupt both histories, so the
writer handle takes a non-blocking ``flock`` on open and holds it until
:meth:`Journal.close` — including across :meth:`Journal.reset`, which
truncates the locked handle in place rather than reopening.  The loser
of the race gets :class:`JournalBusyError` immediately (nothing it wrote
reaches the file) and can retry under a
:class:`~repro.durable.retry.BackoffPolicy` or walk away; read paths
(:func:`scan_journal`) stay lock-free.

:class:`RunJournal` composes a journal with a sealed checkpoint
(:mod:`repro.durable.checkpoint`) into the unit the exploration engine
and the campaign runner actually use: indexed pickled records, periodic
compaction (checkpoint the aggregate, reset the journal), and a
:meth:`RunJournal.recover` that reconstructs the last consistent prefix
and accounts for everything else in a
:class:`~repro.durable.recovery.RecoveryReport`.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX: locking degrades to no-op
    fcntl = None  # type: ignore[assignment]

from repro import telemetry
from repro.durable.checkpoint import (
    CheckpointStore,
    as_path,
    fsync_dir,
    write_sealed,
)
from repro.durable.recovery import (
    QUARANTINE_DIR,
    RecoveryReport,
    quarantine_file,
)
from repro.errors import ReproError

#: Journal file header: magic + format version.  A mismatched header is
#: quarantine-grade (the whole file is unreadable), not a torn tail.
JOURNAL_MAGIC = b"REPROJNL\x01"

_LEN = struct.Struct(">Q")
DIGEST_SIZE = 16

#: Hard ceiling on a single record, enforced on append *and* scan: a
#: corrupted length prefix must never make recovery attempt a multi-GB
#: allocation.
MAX_RECORD_BYTES = 1 << 30

#: Minimum journal growth before :meth:`RunJournal.should_compact` says
#: yes: below this, replaying the log on recovery is cheaper than writing
#: a full-state checkpoint during the run.
COMPACT_FLOOR_BYTES = 4 << 20


class JournalBusyError(ReproError):
    """Another live process holds the writer lock on this journal.

    Raised by the *loser* of a concurrent-open race before any of its
    bytes reach the file — the on-disk journal stays the winner's,
    uncorrupted.  Callers either retry (serve's admission queue, under
    its backoff policy) or surface the conflict (two explorations
    resuming the same run key is an operator error).
    """

    def __init__(self, path: Path) -> None:
        super().__init__(
            f"journal {path} is locked by another writer; "
            "concurrent appends would corrupt it"
        )
        self.path = path


def _lock_or_raise(handle: Any, path: Path) -> None:
    """Take the non-blocking writer flock, or raise :class:`JournalBusyError`.

    flock attaches to the open file description, so a second ``Journal``
    on the same path conflicts even within one process — which is the
    point: one journal, one writer, no exceptions.
    """
    if fcntl is None:  # non-POSIX: advisory locking unavailable
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        raise JournalBusyError(path) from None


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


def _timed_fsync(fileno: int) -> None:
    """fsync, timing the wait into the volatile latency histogram."""
    t0 = time.perf_counter()
    os.fsync(fileno)
    telemetry.observe(
        "durable.fsync_seconds", time.perf_counter() - t0, volatile=True
    )


@dataclass
class JournalScan:
    """Classification of one journal file's bytes (see module docstring)."""

    payloads: List[bytes] = field(default_factory=list)
    valid_bytes: int = 0  #: header + verified records; truncation point
    discarded_bytes: int = 0  #: torn/corrupt suffix beyond the valid prefix
    header_ok: bool = True  #: False => the whole file is unreadable


def scan_journal(path: Path) -> JournalScan:
    """Read *path* and classify every byte.  Never raises.

    A missing file scans as an empty, header-ok journal (there is nothing
    to salvage and nothing wrong).
    """
    try:
        data = as_path(path).read_bytes()
    except OSError:
        return JournalScan(valid_bytes=len(JOURNAL_MAGIC))
    if not data:
        return JournalScan(valid_bytes=len(JOURNAL_MAGIC))
    if not data.startswith(JOURNAL_MAGIC):
        return JournalScan(
            header_ok=False, valid_bytes=0, discarded_bytes=len(data)
        )
    scan = JournalScan(valid_bytes=len(JOURNAL_MAGIC))
    offset = len(JOURNAL_MAGIC)
    while offset < len(data):
        if offset + _LEN.size + DIGEST_SIZE > len(data):
            break  # torn: not even a complete length + digest
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        digest = data[offset:offset + DIGEST_SIZE]
        offset += DIGEST_SIZE
        if length > MAX_RECORD_BYTES or offset + length > len(data):
            break  # torn or length-corrupted: promised bytes aren't there
        payload = data[offset:offset + length]
        if _digest(payload) != digest:
            break  # corrupt: present but unverifiable
        offset += length
        scan.payloads.append(payload)
        scan.valid_bytes = offset
    scan.discarded_bytes = len(data) - scan.valid_bytes
    return scan


class Journal:
    """Append-only checksummed record log over one file."""

    def __init__(self, path: Path) -> None:
        self.path = as_path(path)
        self._handle: Optional[io.BufferedWriter] = None

    def _ensure_open(self) -> io.BufferedWriter:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            handle = open(self.path, "ab")
            try:
                _lock_or_raise(handle, self.path)
            except JournalBusyError:
                handle.close()
                raise
            self._handle = handle
            if fresh:
                self._handle.write(JOURNAL_MAGIC)
                self._handle.flush()
        return self._handle

    def append(self, payload: bytes, *, sync: bool = False) -> None:
        """Append one record; flushed to the OS (``kill -9``-safe) always,
        fsynced (power-loss-safe) only when *sync* is set."""
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(
                f"journal record of {len(payload)} bytes exceeds "
                f"MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
            )
        handle = self._ensure_open()
        handle.write(_LEN.pack(len(payload)) + _digest(payload) + payload)
        handle.flush()
        if sync:
            _timed_fsync(handle.fileno())

    def sync(self) -> None:
        """fsync pending appends (no-op if nothing was ever appended)."""
        if self._handle is not None:
            self._handle.flush()
            _timed_fsync(self._handle.fileno())

    def reset(self) -> None:
        """Truncate to an empty (header-only) journal, durably.

        The writer lock is held *across* the truncation: the handle is
        truncated in place rather than closed and reopened, so no other
        process can slip in between compaction and the next append.
        """
        handle = self._ensure_open()
        handle.flush()
        handle.truncate(0)
        handle.write(JOURNAL_MAGIC)  # O_APPEND: lands at the new EOF (0)
        handle.flush()
        os.fsync(handle.fileno())
        fsync_dir(self.path.parent)

    def repair(self, scan: JournalScan) -> None:
        """Truncate the file to *scan*'s valid prefix (drop the torn tail)."""
        self.close()
        if not self.path.exists():
            return
        try:
            with open(self.path, "rb+") as handle:
                _lock_or_raise(handle, self.path)
                handle.truncate(scan.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass

    def close(self) -> None:
        """fsync pending appends and release the file handle."""
        if self._handle is not None:
            try:
                self.sync()
            finally:
                self._handle.close()
                self._handle = None


#: Checkpoint payload: (format, next_record_index, application object).
_CK_FORMAT = 1


class RunJournal:
    """One run's durable state: ``<dir>/journal.bin`` + ``<dir>/checkpoint.bin``.

    Records are pickled ``(index, obj)`` pairs; indices are the
    application's monotonically increasing unit counter (batch number,
    trial number).  Compaction (:meth:`checkpoint`) persists the
    aggregate state *and the index it covers*, then resets the journal —
    so recovery can tell redundant pre-compaction records (stale, skipped)
    from the live suffix, even if a crash lands between the two steps.
    """

    def __init__(
        self, directory: Path, *, quarantine_dir: str | Path | None = None
    ) -> None:
        self.directory = as_path(directory)
        self.journal = Journal(self.directory / "journal.bin")
        #: Quarantines into ``<directory>/quarantine/`` by default.
        self.store = CheckpointStore(
            self.directory / "checkpoint.bin", quarantine_dir
        )
        #: First unused record index after :meth:`recover` — the index the
        #: resuming run should stamp on its next :meth:`record` call.
        self.next_index: int = 0
        #: Journal bytes appended since the last compaction, and the size
        #: of the last checkpoint blob — the two sides of the
        #: :meth:`should_compact` amortization rule.
        self.bytes_since_compaction: int = 0
        self.last_checkpoint_bytes: int = 0

    @property
    def quarantine_dir(self) -> Path:
        """Where this run's unreadable files are moved."""
        return self.store.quarantine_dir

    @classmethod
    def open_run(
        cls, root: str | Path, key: str
    ) -> Tuple[
        "RunJournal", Any, List[Tuple[int, Any]], Optional[RecoveryReport]
    ]:
        """Open and :meth:`recover` run *key*'s ``<root>/<key>.journal/``.

        Returns ``(journal, checkpoint, records, report)``: the dict
        checkpoint or ``None``, and ``None`` for the report of a fresh
        journal.  A ``{"finished": True, ...}`` checkpoint sets
        ``report.checkpoint_finished`` and closes the journal; the caller
        answers from it.  Unreadable files go to ``<root>/quarantine/``.
        """
        runlog = cls(
            Path(root, f"{key}.journal"),
            quarantine_dir=os.path.join(root, QUARANTINE_DIR),
        )
        ck, records, report = runlog.recover()
        if not isinstance(ck, dict):
            ck = None
        elif ck.get("finished"):
            report.checkpoint_finished = True
            runlog.close()
        if not report.salvaged_anything:
            return runlog, ck, records, None
        return runlog, ck, records, report

    def record(self, index: int, obj: Any, *, sync: bool = False) -> None:
        """Append one unit of completed work to the journal."""
        payload = pickle.dumps((index, obj), protocol=pickle.HIGHEST_PROTOCOL)
        self.journal.append(payload, sync=sync)
        self.bytes_since_compaction += len(payload) + _LEN.size + DIGEST_SIZE
        telemetry.counter("durable.appends")
        telemetry.counter("durable.append_bytes", len(payload))

    def checkpoint(self, obj: Any, next_index: int) -> None:
        """Compact: seal the aggregate covering ``[0, next_index)``, then
        reset the journal.  Crash-safe in either order of survival."""
        with telemetry.span("durable.checkpoint", next_index=next_index) as sp:
            payload = pickle.dumps(
                (_CK_FORMAT, next_index, obj), protocol=pickle.HIGHEST_PROTOCOL
            )
            write_sealed(self.store.path, payload)
            self.journal.reset()
            sp.set(bytes=len(payload))
        self.bytes_since_compaction = 0
        self.last_checkpoint_bytes = len(payload)
        telemetry.counter("durable.checkpoints")

    def finish(self, payload: dict, next_index: int) -> None:
        """Checkpoint a finished run's answer, then delete its journal.

        Writes ``{"finished": True, **payload}``, the checkpoint
        :meth:`open_run` answers from.  Nothing is appended after it, so
        the journal file goes and a re-ask reads one file, not two.  A
        crash before the delete leaves an empty journal, which is fine.
        """
        self.checkpoint({"finished": True, **payload}, next_index)
        self.close()
        self.journal.path.unlink(missing_ok=True)

    def should_compact(self) -> bool:
        """Has the journal grown enough that folding it in pays?

        The amortization rule of log-structured storage: compacting costs
        one full-state write, so it only pays once the log to be folded in
        is at least that large — and never before ``COMPACT_FLOOR_BYTES``,
        which caps compaction frequency for runs whose state dwarfs their
        per-unit deltas.  Callers combine this with their own unit cadence
        (``checkpoint_every``).  Skipping a compaction never risks work:
        records alone replay from the previous base; the only cost is
        recovery replaying at most the floor's worth of deltas.  Graceful
        exits (watchdog, SIGTERM, completion) checkpoint unconditionally.
        """
        return self.bytes_since_compaction >= max(
            COMPACT_FLOOR_BYTES, self.last_checkpoint_bytes
        )

    def recover(self) -> Tuple[Optional[Any], List[Tuple[int, Any]], RecoveryReport]:
        """Reconstruct the last consistent prefix of the run.

        Returns ``(checkpoint_obj, records, report)`` where *records* are
        the contiguous post-checkpoint ``(index, obj)`` pairs.  Never
        raises; every anomaly is truncated or quarantined and accounted
        for in the report.
        """
        report = RecoveryReport(run=self.directory.name)
        checkpoint_obj = None
        next_index = 0
        ck, problem = self.store.load()
        if problem == "corrupt":
            report.quarantined.append(self.store.path.name)
            report.notes.append("checkpoint failed verification; quarantined")
        elif ck is not None:
            try:
                fmt, next_index, checkpoint_obj = ck
                valid = fmt == _CK_FORMAT and isinstance(next_index, int)
            except (TypeError, ValueError):
                valid = False
            if not valid:
                checkpoint_obj, next_index = None, 0
                quarantine_file(self.store.path, self.quarantine_dir)
                report.quarantined.append(self.store.path.name)
                report.notes.append("checkpoint format skew; quarantined")
            else:
                report.checkpoint_loaded = True

        scan = scan_journal(self.journal.path)
        records: List[Tuple[int, Any]] = []
        expected = next_index
        if not scan.header_ok:
            moved = quarantine_file(self.journal.path, self.quarantine_dir)
            if moved is not None:
                report.quarantined.append(self.journal.path.name)
            report.notes.append("journal header unreadable; quarantined")
            report.bytes_discarded += scan.discarded_bytes
        else:
            if scan.discarded_bytes:
                report.bytes_discarded += scan.discarded_bytes
                report.notes.append(
                    f"journal tail torn at byte {scan.valid_bytes}; truncated"
                )
                self.journal.repair(scan)
            for payload in scan.payloads:
                try:
                    index, obj = pickle.loads(payload)
                except Exception:  # noqa: BLE001 — unpicklable => corrupt
                    report.notes.append("unpicklable journal record; dropped")
                    break
                if not isinstance(index, int) or index < expected:
                    report.records_stale += 1
                    continue
                if index > expected:
                    report.notes.append(
                        f"journal gap at record {expected}; suffix dropped"
                    )
                    break
                records.append((index, obj))
                expected += 1
            report.records_recovered = len(records)
        self.next_index = expected
        # Prime should_compact from the sizes just read (an unreadable
        # journal scans as 0 valid bytes).
        self.bytes_since_compaction = max(
            0, scan.valid_bytes - len(JOURNAL_MAGIC)
        )
        self.last_checkpoint_bytes = (
            self.store.loaded_bytes if report.checkpoint_loaded else 0
        )
        self._recovery_telemetry(report)
        return checkpoint_obj, records, report

    @staticmethod
    def _recovery_telemetry(report: RecoveryReport) -> None:
        """Publish one salvaging recovery's counters (fresh journals skip).

        Volatile: what a recovery salvages depends on where the previous
        process died, which is a host accident, not run semantics.
        """
        if not report.salvaged_anything:
            return
        telemetry.counter("durable.recoveries", volatile=True)
        telemetry.counter(
            "durable.records_recovered", report.records_recovered,
            volatile=True,
        )
        telemetry.counter(
            "durable.records_stale", report.records_stale, volatile=True
        )
        telemetry.counter(
            "durable.bytes_discarded", report.bytes_discarded, volatile=True
        )

    def close(self) -> None:
        """fsync and release the underlying journal file."""
        self.journal.close()
