"""Supervised execution of verify jobs: worker pool, watchdogs, healing.

:func:`execute_job` is the worker entry point — a pure function from a
job descriptor (plus resource limits) to a verdict payload, runnable in
a pool worker or inline.  It dispatches on the job's ``mode``:

* ``explore`` — exhaustive safety check via
  :func:`~repro.explore.checker.explore_safety` (always ``workers=1``:
  pool workers are daemonic and cannot fork grandchildren; verdicts are
  worker-count-independent anyway);
* ``run`` — one execution under a named adversary, checked with
  :func:`~repro.spec.properties.check_safety`;
* ``faults`` — a seeded chaos campaign via
  :func:`~repro.faults.campaign.run_campaign`.

Every payload is built from deterministic identity fields only (the
explore result's :meth:`~repro.explore.checker.ExplorationResult.identity_record`,
trial outcome rows, sorted output sets) — never wall-clock or host
facts — which is what makes verdict fingerprints bit-stable across
workers, restarts, and replays.

:class:`WorkerSupervisor` owns the pool, a
:class:`~repro.durable.pool.SupervisedPool` (the same one explore uses).
Per-job limits reuse :class:`~repro.durable.watchdog.Watchdog` *inside*
the worker (deadline and RSS fire at clean unit boundaries, yielding an
``incomplete`` result), with a coordinator-side timeout as the backstop
for a wedged worker.  Pool incidents (worker death, unpicklable results,
backstop timeouts) take the shared healing path: tear down, sleep per
the jittered :class:`~repro.durable.retry.BackoffPolicy`, rebuild — and
after the retry budget, degrade to serial in-process execution rather
than going dark.  Without ``job_deadline`` there is no backstop, and a
worker killed mid-job leaves that job waiting forever.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import Any, Dict, Optional

from repro import telemetry
from repro.durable.pool import SupervisedPool, init_worker, make_pool
from repro.durable.retry import DEFAULT_REBUILD_POLICY, BackoffPolicy
from repro.durable.watchdog import Watchdog
from repro.errors import ReproError
from repro.serve.protocol import VerifyJob
from repro.telemetry.tracing import SpanRecord

#: Extra seconds the coordinator waits past a job's deadline before
#: declaring the worker wedged; the in-worker watchdog should have fired
#: long before this backstop does.
DEADLINE_GRACE = 5.0

#: Default healing policy: the shared rebuild schedule plus jitter, so a
#: fleet of daemons recovering from the same incident fans out in time.
DEFAULT_SUPERVISOR_POLICY = dataclasses.replace(
    DEFAULT_REBUILD_POLICY, max_retries=2, jitter=0.25, seed=0
)


def _protocol_registry():
    from repro import (
        AnonymousRepeatedSetAgreement,
        OneShotSetAgreement,
        RepeatedSetAgreement,
    )
    from repro.agreement.anonymous import AnonymousOneShotSetAgreement

    return {
        "oneshot": OneShotSetAgreement,
        "repeated": RepeatedSetAgreement,
        "anonymous": AnonymousRepeatedSetAgreement,
        "anonymous-oneshot": AnonymousOneShotSetAgreement,
    }


def _build_system(job: VerifyJob):
    from repro import System
    from repro.bench.workloads import distinct_inputs

    protocol = _protocol_registry()[job.protocol](n=job.n, m=job.m, k=job.k)
    return System(protocol, workloads=distinct_inputs(job.n))


def _execute_explore(job: VerifyJob, watchdog: Optional[Watchdog]) -> Dict[str, Any]:
    from repro.explore import explore_safety

    system = _build_system(job)
    result = explore_safety(
        system,
        k=job.k,
        max_configs=job.max_configs,
        reduction=job.reduction,
        canonicalize=job.canonicalize,
        workers=1,
        watchdog=watchdog,
    )
    if result.interrupted is not None:
        return {"outcome": "incomplete", "reason": result.interrupted}
    outcome = "refuted" if result.safety_violations else "ok"
    return {
        "outcome": outcome,
        "detail": result.summary(),
        "data": result.identity_record(),
    }


def _execute_run(job: VerifyJob, watchdog: Optional[Watchdog]) -> Dict[str, Any]:
    from repro import run
    from repro.sched import build_scheduler
    from repro.spec import check_safety

    if watchdog is not None:
        reason = watchdog.poll()
        if reason is not None:
            return {"outcome": "incomplete", "reason": reason}
    system = _build_system(job)
    scheduler = build_scheduler(job.scheduler, seed=job.seed, m=job.m)
    execution = run(
        system, scheduler, max_steps=job.max_steps, on_limit="return",
        telemetry_span="serve.run",
    )
    violations = check_safety(execution, job.k)
    outputs = {
        "1": sorted(set(map(repr, execution.instance_outputs(1))))
    }
    data = {
        "hit_step_limit": execution.hit_step_limit,
        "outputs": outputs,
        "steps": execution.steps,
        "violations": sorted(str(v) for v in violations),
    }
    outcome = "refuted" if violations else "ok"
    detail = (
        f"{execution.steps} steps, outputs {outputs['1']}"
        + (f", {len(violations)} violations" if violations else "")
    )
    return {"outcome": outcome, "detail": detail, "data": data}


def _execute_faults(job: VerifyJob, watchdog: Optional[Watchdog]) -> Dict[str, Any]:
    from repro.faults import build_family, run_campaign

    system = _build_system(job)
    plans = build_family(
        job.fault_family, system, trials=job.trials, seed=job.seed
    )
    report = run_campaign(
        system, plans, family=job.fault_family, k=job.k, budget=job.budget,
        watchdog=watchdog,
    )
    if report.interrupted is not None:
        return {"outcome": "incomplete", "reason": report.interrupted}
    data = {
        "family": report.family,
        "retries": report.retries,
        "trials": [
            {
                "attempts": t.attempts,
                "certified": t.certified,
                "outcome": t.outcome,
                "plan": t.plan.describe(),
                "schedule": list(t.schedule),
                "steps": t.steps,
            }
            for t in report.trials
        ],
    }
    outcome = "refuted" if report.certified_violations else "ok"
    report.elapsed_seconds = 0.0  # wall-clock is volatile; keep detail stable
    return {"outcome": outcome, "detail": report.summary(), "data": data}


_EXECUTORS = {
    "explore": _execute_explore,
    "run": _execute_run,
    "faults": _execute_faults,
}


def execute_job(
    descriptor: Dict[str, Any],
    deadline: Optional[float] = None,
    max_rss_mb: Optional[float] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one verify job to a verdict payload.  Never raises.

    The payload's ``outcome`` is ``"ok"`` / ``"refuted"`` (deterministic,
    memoizable), ``"incomplete"`` (a watchdog fired — a host accident,
    never cached), or ``"error"`` (the job could not run).  ``job`` is
    echoed back so a payload is self-describing.

    *trace*, when given in a pool worker (where no telemetry session is
    active), is the coordinator's wire-form trace context; the measured
    ``serve.execute`` span rides back under the payload's ``"span"`` key.
    :meth:`WorkerSupervisor.run_job` strips that key and re-emits the
    span *before* anyone fingerprints the payload, so verdict
    fingerprints are bit-identical with tracing on or off.  In-process
    execution (the degraded path, the CLI) has an active session, so the
    span below emits natively and nothing is attached.
    """
    job = None
    wall0 = time.time()
    t0 = time.perf_counter()
    try:
        job = VerifyJob.from_wire(descriptor)
        watchdog = None
        if deadline is not None or max_rss_mb is not None:
            watchdog = Watchdog(deadline=deadline, max_rss_mb=max_rss_mb)
        with telemetry.span("serve.execute", mode=job.mode, key=job.key):
            if watchdog is not None:
                with watchdog:
                    payload = _EXECUTORS[job.mode](job, watchdog)
            else:
                payload = _EXECUTORS[job.mode](job, None)
    except ReproError as exc:
        payload = {"outcome": "error", "detail": str(exc)}
    except Exception as exc:  # noqa: BLE001 — a worker must answer, not die
        payload = {"outcome": "error",
                   "detail": f"{type(exc).__name__}: {exc}"}
    payload["job"] = descriptor if job is None else job.descriptor()
    if trace is not None and telemetry.active() is None:
        payload["span"] = {
            "name": "serve.execute",
            "span": trace.get("span"),
            "parent": trace.get("parent"),
            "lane": trace.get("lane"),
            "mode": None if job is None else job.mode,
            "key": None if job is None else job.key,
            "outcome": payload.get("outcome"),
            "t0": wall0,
            "dur": time.perf_counter() - t0,
            "pid": os.getpid(),
        }
    return payload


def _strip_span(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pop the piggybacked worker span off a payload and re-emit it.

    Must run before the payload reaches
    :func:`~repro.serve.protocol.verdict_fingerprint`: the span is
    observability freight, not verdict identity, so it never participates
    in fingerprints or the verdict store.  No-op when the payload carries
    no span (tracing off, degraded in-process execution) or no session is
    active.
    """
    data = payload.pop("span", None)
    if not isinstance(data, dict) or not data.get("span"):
        return payload
    attrs = tuple(
        (key, data[key])
        for key in ("key", "mode", "outcome")
        if data.get(key) is not None
    )
    telemetry.emit_span(SpanRecord(
        name=str(data.get("name", "serve.execute")),
        span_id=str(data["span"]),
        parent=data.get("parent"),
        lane=str(data.get("lane", "")) or "serve",
        attrs=attrs,
        t0=float(data.get("t0", 0.0)),
        dur=float(data.get("dur", 0.0)),
        pid=int(data.get("pid", 0)),
    ))
    return payload


class WorkerSupervisor:
    """Owns the worker pool; heals it; degrades to serial, never dark."""

    def __init__(
        self,
        *,
        workers: int = 1,
        job_deadline: Optional[float] = None,
        job_max_rss: Optional[float] = None,
        policy: Optional[BackoffPolicy] = None,
        serial: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.job_deadline = job_deadline
        self.job_max_rss = job_max_rss
        self.policy = policy if policy is not None else DEFAULT_SUPERVISOR_POLICY
        self.jobs_run = 0
        # The backstop timeout means the job overran, not that a worker
        # was lost: count the incident, never retry it.
        self._pool = SupervisedPool(
            lambda: make_pool(workers, initializer=init_worker),
            self.policy,
            retry_timeouts=False,
        )
        self._pool.degraded = serial

    @property
    def degraded(self) -> bool:
        return self._pool.degraded

    @property
    def rebuilds(self) -> int:
        return self._pool.incidents

    def start(self) -> None:
        """Build the worker pool (no-op when serial or already built)."""
        was_degraded = self.degraded
        self._pool.start()
        if self.degraded and not was_degraded:
            telemetry.mark("serve.degraded")

    def run_job(
        self, job: VerifyJob, trace: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Execute *job*, healing the pool across failures.  Never raises.

        *trace* (the daemon's wire-form trace context) travels to the
        worker with the job; the worker-measured span comes back inside
        the payload and is stripped + re-emitted here — before the
        caller fingerprints the payload, which is what keeps verdict
        fingerprints identical to untraced runs.
        """
        descriptor = job.descriptor()
        args = (descriptor, self.job_deadline, self.job_max_rss, trace)
        timeout = (
            None if self.job_deadline is None
            else self.job_deadline + DEADLINE_GRACE
        )
        self.jobs_run += 1
        seen, was_degraded = self.rebuilds, self.degraded
        try:
            payload = self._pool.apply(execute_job, args, timeout=timeout)
            kinds = ["pool-failure"] * (self.rebuilds - seen)
        except multiprocessing.TimeoutError:
            # The in-worker watchdog missed its deadline by the whole
            # grace window: the worker is wedged, not slow.  Retrying a
            # job that deterministically exceeds its budget would burn
            # the whole retry ladder for nothing.
            kinds = ["pool-failure"] * (self.rebuilds - seen - 1) + ["wedged"]
            payload = {
                "outcome": "incomplete", "reason": "deadline",
                "job": descriptor,
            }
        for kind in kinds:
            telemetry.counter("serve.pool_rebuilds", volatile=True)
            telemetry.mark("serve.pool_incident", kind=kind)
        if payload is None:
            if not was_degraded:
                telemetry.mark("serve.degraded")
            payload = execute_job(*args)
        return _strip_span(payload)

    def stop(self) -> None:
        """Tear the pool down; safe to call repeatedly."""
        self._pool.close()

    def status(self) -> Dict[str, Any]:
        """Healing counters for the daemon's status op."""
        return {
            "degraded": self.degraded,
            "jobs_run": self.jobs_run,
            "pool_rebuilds": self.rebuilds,
            "workers": 0 if self.degraded else self.workers,
        }
