"""`repro serve`: a supervised verification daemon with memoized verdicts.

The batch commands (``explore``, ``run``, ``faults``) answer one question
per process.  This package turns them into a long-running service: a
daemon accepts *verify jobs* — (protocol, n, m, k, scheduler or fault
plan) descriptors — over a line-delimited JSON socket, runs
them on a supervised worker pool, and memoizes every verdict in a
content-addressed store keyed by the packed job fingerprint, so repeat
queries are cache hits that never re-run the computation.

Robustness is the design center, assembled from the durable layer:

* :mod:`repro.serve.protocol` — the job/verdict vocabulary: canonical
  JSON encoding, the blake2b job key, the verdict fingerprint;
* :mod:`repro.serve.store` — the content-addressed verdict store
  (sealed blobs, quarantine on corruption, atomic replace);
* :mod:`repro.serve.queue` — the bounded admission queue: explicit
  backpressure (reject-with-retry-after, never unbounded buffering) and
  a write-ahead job journal — every accepted job is journaled *before*
  execution, so ``kill -9`` + restart replays the queue and produces
  bit-identical verdicts;
* :mod:`repro.serve.supervisor` — the worker pool: per-job
  deadline/RSS watchdogs, pool rebuild under the shared
  :class:`~repro.durable.retry.BackoffPolicy`, graceful degradation to
  serial in-process execution;
* :mod:`repro.serve.server` — the daemon: socket front end, dispatch
  loop, ``status`` endpoint, SIGTERM-graceful shutdown (exit 143);
* :mod:`repro.serve.client` — the minimal line-protocol client used by
  the CLI smoke tests, CI, and benchmarks.

See ``docs/serving.md`` for the wire protocol, backpressure semantics,
and the kill-and-resume runbook.
"""

from repro.serve.protocol import VerifyJob, verdict_fingerprint
from repro.serve.queue import Backpressure, JobQueue
from repro.serve.server import ReproServer
from repro.serve.store import VerdictStore
from repro.serve.supervisor import WorkerSupervisor, execute_job

__all__ = [
    "Backpressure",
    "JobQueue",
    "ReproServer",
    "VerdictStore",
    "VerifyJob",
    "WorkerSupervisor",
    "execute_job",
    "verdict_fingerprint",
]
