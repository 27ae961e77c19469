"""Crash-safe run durability: journal, checkpoints, watchdogs, recovery.

The repository's verification workloads — exhaustive explorations, fault
campaigns — are long, deterministic, and restartable, which makes
preemption tolerance cheap: persist progress at unit boundaries and a
resumed run is *provably* (bit-identically) the run that was interrupted.
This package is that persistence layer:

* :mod:`repro.durable.journal` — the append-only, length-prefixed,
  blake2b-checksummed record log (:class:`~repro.durable.journal.Journal`)
  and the checkpoint-compacted per-run composition
  (:class:`~repro.durable.journal.RunJournal`);
* :mod:`repro.durable.checkpoint` — sealed (digest-framed), fsync'd,
  atomically replaced blobs — the write discipline that survives power
  loss, not just process death;
* :mod:`repro.durable.watchdog` — wall-clock deadlines, RSS ceilings and
  SIGTERM routing that turn impending preemption into checkpoint-then-
  clean-exit (CLI exit code 3, or 143 for SIGTERM);
* :mod:`repro.durable.recovery` — the salvage accounting
  (:class:`~repro.durable.recovery.RecoveryReport`) and the quarantine
  protocol (unreadable files are moved under ``quarantine/``, never
  deleted, never re-hit);
* :mod:`repro.durable.retry` — the one shared exponential-backoff
  policy (:class:`~repro.durable.retry.BackoffPolicy`, optional seeded
  jitter) behind every self-healing retry loop;
* :mod:`repro.durable.pool` — the one supervised worker pool
  (:class:`~repro.durable.pool.SupervisedPool`): retry, rebuild, then
  degrade to in-process execution.

Consumers: the exploration coordinator (``explore/frontier.py``,
``journal_dir=…``, ``workers=…``), whose run journal is its only
persistent store, the serve supervisor (``serve/supervisor.py``), the
serve job queue and verdict store, and the campaign runner
(``faults/campaign.py``).
"""

from repro.durable.checkpoint import (
    CheckpointStore,
    read_sealed,
    seal,
    unseal,
    write_sealed,
)
from repro.durable.journal import (
    Journal,
    JournalBusyError,
    JournalScan,
    RunJournal,
    scan_journal,
)
from repro.durable.recovery import RecoveryReport, quarantine_file
from repro.durable.retry import DEFAULT_REBUILD_POLICY, BackoffPolicy
from repro.durable.watchdog import (
    Terminated,
    Watchdog,
    current_rss_mb,
    install_sigterm_handler,
)

__all__ = [
    "BackoffPolicy",
    "CheckpointStore",
    "DEFAULT_REBUILD_POLICY",
    "Journal",
    "JournalBusyError",
    "JournalScan",
    "RecoveryReport",
    "RunJournal",
    "Terminated",
    "Watchdog",
    "current_rss_mb",
    "install_sigterm_handler",
    "quarantine_file",
    "read_sealed",
    "scan_journal",
    "seal",
    "unseal",
    "write_sealed",
]
