"""Campaign runner: sweep fault plans, retry, certify every violation.

A *campaign* runs a family of :class:`~repro.faults.plans.FaultPlan`s
against one system and aggregates the outcomes:

* ``safe`` — the trial ran to quiescence of the live processes with no
  safety violation;
* ``violation`` — Validity or k-Agreement broke, and the witness schedule
  was **certified by replay**: a fresh faulty system is rebuilt from the
  plan, the recorded schedule is folded through the pure step function,
  and the independent checker (:mod:`repro.spec.properties`) re-establishes
  the violation — the same discipline as
  :mod:`repro.lowerbounds.covering`.  An uncertifiable violation (never
  observed; it would indicate an engine bug) is downgraded to
  ``inconclusive`` rather than reported as evidence;
* ``inconclusive`` — the step budget ran out before the live processes
  finished (corrupted registers can livelock the paper's algorithms —
  that is a *progress* casualty, not a safety verdict).  Inconclusive
  trials are retried under exponentially growing budgets before the label
  sticks.

The two controls the subsystem exists for (paper §2.1):

* **positive** — crash-only plans stay inside the model m-obstruction-
  freedom quantifies over, so a campaign over them must report zero
  violations (:meth:`FaultReport.crash_safety_holds`);
* **negative** — register corruption leaves the model, and
  :func:`~repro.faults.plans.corruption_plan_family` includes plans
  guaranteed to make each algorithm decide a never-proposed value, so a
  corruption campaign must produce at least one certified violation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import telemetry
from repro.durable.journal import RunJournal
from repro.durable.recovery import RecoveryReport
from repro.durable.retry import BackoffPolicy
from repro.durable.watchdog import Watchdog
from repro.errors import ConfigurationError
from repro.faults.inject import faulty_system, plan_scheduler
from repro.faults.plans import FaultPlan
from repro.runtime.runner import replay, run
from repro.runtime.system import System, stable_fingerprint
from repro.spec.properties import Violation, check_safety

SAFE, VIOLATION, INCONCLUSIVE = "safe", "violation", "inconclusive"


@dataclass(frozen=True)
class FaultTrial:
    """Outcome of one plan: verdict, witness, and certification status."""

    plan: FaultPlan
    outcome: str
    steps: int
    attempts: int
    violations: Tuple[Violation, ...] = ()
    schedule: Tuple[int, ...] = ()
    certified: bool = False

    def describe(self) -> str:
        """One row of the campaign report."""
        tail = ""
        if self.outcome == VIOLATION:
            tail = f" — certified: {self.violations[0]}"
        return (
            f"{self.plan.describe()} -> {self.outcome} "
            f"({self.steps} steps, {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''}){tail}"
        )


@dataclass
class FaultReport:
    """Aggregate of one campaign, with wall-clock for throughput numbers.

    ``interrupted`` and ``recovery`` mirror the exploration engine's
    durability history (see :mod:`repro.durable`): the watchdog reason
    when the campaign checkpointed and stopped early, and the
    :class:`~repro.durable.recovery.RecoveryReport` when it resumed from
    a journal.  Trials are deterministic functions of their plans, so a
    resumed campaign's trial list is bit-identical to an uninterrupted
    one's; ``elapsed_seconds`` covers only the current process's share of
    the work and is excluded from identity comparisons, like the rest of
    the history fields.
    """

    family: str
    trials: List[FaultTrial] = field(default_factory=list)
    retries: int = 0
    elapsed_seconds: float = 0.0
    interrupted: Optional[str] = None
    recovery: Optional[RecoveryReport] = None

    def outcomes(self, outcome: str) -> List[FaultTrial]:
        """Trials whose verdict is *outcome* (safe/violation/inconclusive)."""
        return [t for t in self.trials if t.outcome == outcome]

    @property
    def certified_violations(self) -> List[FaultTrial]:
        return [t for t in self.trials if t.certified]

    def crash_safety_holds(self) -> bool:
        """Positive control: no crash-only plan produced a violation."""
        return not any(
            t.outcome == VIOLATION for t in self.trials if t.plan.crash_only
        )

    def summary(self) -> str:
        """One-line account of the campaign."""
        return (
            f"fault campaign [{self.family}]: {len(self.trials)} trials — "
            f"{len(self.outcomes(SAFE))} safe, "
            f"{len(self.certified_violations)} certified violations, "
            f"{len(self.outcomes(INCONCLUSIVE))} inconclusive "
            f"({self.retries} retries, {self.elapsed_seconds:.2f}s)"
        )


def _certify(system: System, plan: FaultPlan, schedule: Sequence[int],
             k: int) -> Tuple[Violation, ...]:
    """Re-establish a violation by replay through a *fresh* faulty system."""
    fresh = faulty_system(system, plan)
    execution = replay(fresh, schedule)
    return tuple(check_safety(execution, k))


def run_trial(
    system: System,
    plan: FaultPlan,
    *,
    k: Optional[int] = None,
    budget: int = 20_000,
    max_retries: int = 3,
    backoff: float = 2.0,
) -> FaultTrial:
    """Run one plan; retry inconclusive runs under exponential budgets.

    ``k`` defaults to the automaton's own parameter.  The returned trial's
    ``violations`` are always the *replay-certified* ones.
    """
    if k is None:
        k = getattr(system.automaton, "k", None)
        if k is None:
            raise ConfigurationError(
                "run_trial needs k (the automaton carries none)"
            )
    policy = BackoffPolicy(max_retries=max_retries, factor=backoff)
    attempts = 0
    execution = None
    for attempt in policy.attempts():
        attempts = attempt + 1
        attempt_budget = policy.scaled_budget(budget, attempt)
        faulty = faulty_system(system, plan)
        execution = run(
            faulty,
            plan_scheduler(plan),
            max_steps=attempt_budget,
            on_limit="return",
            telemetry_span="faults.attempt",
            # The retry attempt index is deterministic (the backoff ladder
            # is seeded), so it may live in span attrs: the stitched trace
            # can tell attempt 1's re-execution apart from attempt 0.
            telemetry_attrs={"attempt": attempt},
        )
        observed = check_safety(execution, k)
        if observed:
            certified = _certify(system, plan, execution.schedule, k)
            if certified:
                return FaultTrial(
                    plan=plan,
                    outcome=VIOLATION,
                    steps=execution.steps,
                    attempts=attempts,
                    violations=certified,
                    schedule=tuple(execution.schedule),
                    certified=True,
                )
            break  # uncertifiable: engine bug territory; label inconclusive
        if not execution.hit_step_limit:
            return FaultTrial(
                plan=plan, outcome=SAFE, steps=execution.steps,
                attempts=attempts,
            )
    return FaultTrial(
        plan=plan,
        outcome=INCONCLUSIVE,
        steps=execution.steps if execution is not None else 0,
        attempts=attempts,
    )


def campaign_key(
    system: System,
    plans: Sequence[FaultPlan],
    *,
    family: str,
    k: Optional[int],
    budget: int,
    max_retries: int,
    backoff: float,
) -> str:
    """Stable fingerprint of a campaign's full semantics — its journal key.

    Everything that determines trial outcomes participates: the system
    (automaton class, parameters, workloads, memory-layout shape), the
    exact plan sequence, and the retry/budget knobs.  Two campaigns with
    the same key are the same deterministic computation, which is what
    makes resuming one from the other's journal sound.
    """
    from repro.explore.cache import system_signature

    descriptor = (
        "repro-campaign", 1, family, *system_signature(system),
        tuple(plans), k, budget, max_retries, backoff,
    )
    return stable_fingerprint(descriptor)


def run_campaign(
    system: System,
    plans: Sequence[FaultPlan],
    *,
    family: str = "custom",
    k: Optional[int] = None,
    budget: int = 20_000,
    max_retries: int = 3,
    backoff: float = 2.0,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = 8,
    watchdog: Optional[Watchdog] = None,
) -> FaultReport:
    """Sweep *plans* against *system*, aggregating certified outcomes.

    ``journal_dir`` arms the durable run journal (see
    :mod:`repro.durable`): each completed trial is appended as a
    checksummed record and every ``checkpoint_every`` trials the trial
    list is compacted into a sealed checkpoint, so a killed campaign
    resumes after its last recorded trial instead of restarting.
    ``watchdog`` is polled between trials; when it fires the campaign
    checkpoints and returns early with ``report.interrupted`` set.
    """
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    plans = list(plans)
    runlog = None
    recovery = None
    recovered_trials: List[FaultTrial] = []
    if journal_dir is not None:
        key = campaign_key(
            system, plans, family=family, k=k, budget=budget,
            max_retries=max_retries, backoff=backoff,
        )
        runlog, ck, records, recovery = RunJournal.open_run(journal_dir, key)
        if recovery is not None and recovery.checkpoint_finished:
            prior: FaultReport = ck["report"]
            prior.recovery = recovery
            return prior
        if ck is not None:
            recovered_trials = list(ck["trials"])
        for _, trial in records:
            recovered_trials.append(trial)

    report = FaultReport(family=family)
    report.trials.extend(recovered_trials)
    report.recovery = recovery

    wd = watchdog
    if wd is None and runlog is not None:
        wd = Watchdog()  # SIGTERM mailbox for journaled campaigns

    started = time.perf_counter()
    try:
        if wd is not None:
            wd.__enter__()
        try:
            telemetry.gauge("progress.total", len(plans))
            telemetry.gauge("progress.done", len(report.trials))
            for index in range(len(report.trials), len(plans)):
                if wd is not None:
                    reason = wd.poll()
                    if reason is not None:
                        report.interrupted = reason
                        telemetry.mark("faults.interrupted", reason=reason)
                        break
                with telemetry.span(
                    "faults.trial", trial=index,
                    plan=plans[index].describe(),
                ) as sp:
                    trial = run_trial(
                        system, plans[index], k=k, budget=budget,
                        max_retries=max_retries, backoff=backoff,
                    )
                    sp.set(outcome=trial.outcome, attempts=trial.attempts)
                report.trials.append(trial)
                telemetry.counter("faults.trials")
                telemetry.counter(f"faults.outcome.{trial.outcome}")
                telemetry.counter("faults.retries", trial.attempts - 1)
                telemetry.observe(
                    "faults.trial_steps", trial.steps,
                    bounds=telemetry.COUNT_BUCKETS,
                )
                telemetry.gauge("progress.done", len(report.trials))
                if runlog is not None:
                    runlog.record(index, trial)
                    if ((index + 1) % checkpoint_every == 0
                            and runlog.should_compact()):
                        runlog.checkpoint(
                            {"finished": False, "trials": report.trials},
                            index + 1,
                        )
        finally:
            if wd is not None:
                wd.__exit__(None, None, None)
        report.retries = sum(t.attempts - 1 for t in report.trials)
        report.elapsed_seconds = time.perf_counter() - started
        if runlog is not None:
            if report.interrupted is None:
                runlog.finish({"report": report}, len(report.trials))
            else:
                runlog.checkpoint(
                    {"finished": False, "trials": report.trials},
                    len(report.trials),
                )
        return report
    finally:
        if runlog is not None:
            runlog.close()
