"""Exhaustive exploration: oracles, result types, and the public API.

Configurations are immutable and hashable (see :mod:`repro.runtime.system`),
so the reachable configuration graph is explored with a frontier BFS and a
fingerprint-keyed visited set.  Parent pointers reconstruct a witness
schedule for any violation found.  The BFS itself — including its
multiprocessing fan-out, symmetry reduction, and run journal — lives
in :mod:`repro.explore.frontier`; this module defines *what* is checked:

* :func:`explore_safety` — checks Validity and k-Agreement in every reached
  configuration (both are state-predicates here because process outputs are
  accumulated in local states and workloads are static);
* :func:`explore_progress_closure` — from every reached configuration, run
  each candidate survivor set of size ≤ m in round-robin isolation and
  require the survivors to finish within a budget: the finite analogue of
  m-obstruction-freedom, quantified over *all* reachable adversarial pasts
  rather than sampled preludes.

Repeated algorithms have unbounded state (instance counters, histories), so
exploration is bounded by ``max_configs``; results carry an explicit
``complete`` flag and never claim closure they did not establish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._types import Value
from repro.durable.recovery import RecoveryReport
from repro.errors import StepLimitExceeded
from repro.memory.layout import RegisterCoord
from repro.runtime.system import Configuration, System


@dataclass(frozen=True)
class SafetyCounterexample:
    """A reachable configuration violating a safety property."""

    property_name: str
    instance: int
    outputs: Tuple[Value, ...]
    schedule: Tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ProgressCounterexample:
    """A reachable configuration from which survivors cannot finish."""

    survivors: Tuple[int, ...]
    schedule_to_config: Tuple[int, ...]
    detail: str


@dataclass
class ExplorationResult:
    """Outcome of one exploration run.

    ``complete`` is the engine's closure claim: ``True`` only when the whole
    reachable graph (up to the configured reduction) was expanded within
    budget with no early stop.  ``configs_explored`` counts expanded
    configurations; ``configs_discovered`` counts distinct visited-set
    entries (under canonicalization these are orbit representatives, so
    ``discovered < explored``-free dedup shows up here).

    ``worker_retries`` and ``degraded`` record the self-healing history of
    the run: how many batches had to be resubmitted after a pool timeout or
    worker death, and whether the engine gave up on the pool entirely and
    fell back to serial expansion.  Neither affects the verdict — batches
    are recomputed whole, so a degraded run's violations, counts and
    witness schedules are bit-identical to a healthy one's.

    ``interrupted`` and ``recovery`` are the durability history (see
    :mod:`repro.durable`): the watchdog reason (``"sigterm"``,
    ``"deadline"``, ``"rss"``) when the run checkpointed and stopped early,
    and the :class:`~repro.durable.recovery.RecoveryReport` when the run
    resumed from a journal.  Like the self-healing fields, neither affects
    the verdict — a resumed run replays the journaled deltas onto the last
    checkpoint and continues the identical deterministic BFS.

    ``memory_steps`` / ``write_steps`` / ``registers_written`` are the
    run's register footprint in the paper's space vocabulary: over every
    expanded edge, how many steps touched shared memory, how many were
    writes, and the set of global register coordinates written.  Each
    reachable edge is stepped exactly once, so all three are bit-identical
    across worker counts, batch sizes, and journal resumes (asserted by the
    identity tests alongside the verdict).
    """

    configs_explored: int
    complete: bool
    safety_violations: List[SafetyCounterexample] = field(default_factory=list)
    progress_violations: List[ProgressCounterexample] = field(default_factory=list)
    configs_discovered: int = 0
    worker_retries: int = 0
    degraded: bool = False
    interrupted: Optional[str] = None
    recovery: Optional[RecoveryReport] = None
    memory_steps: int = 0
    write_steps: int = 0
    registers_written: Set["RegisterCoord"] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        """True iff no safety or progress violation was found."""
        return not self.safety_violations and not self.progress_violations

    def identity_record(self) -> Dict[str, object]:
        """Deterministic, JSON-safe identity of this exploration's verdict.

        The history fields (``worker_retries``, ``degraded``,
        ``interrupted``, ``recovery``) are host accidents and excluded;
        the footprint set is rendered in sorted order.  Two runs of the
        same job therefore produce byte-identical canonical JSON no
        matter the worker count, batch size, or resume history — this is
        the payload ``repro serve`` memoizes and fingerprints.
        """
        return {
            "complete": self.complete,
            "configs_discovered": self.configs_discovered,
            "configs_explored": self.configs_explored,
            "memory_steps": self.memory_steps,
            "progress_violations": [
                {
                    "detail": v.detail,
                    "schedule_to_config": list(v.schedule_to_config),
                    "survivors": list(v.survivors),
                }
                for v in self.progress_violations
            ],
            "registers_written": sorted(
                [coord.bank, coord.index] for coord in self.registers_written
            ),
            "safety_violations": [
                {
                    "detail": v.detail,
                    "instance": v.instance,
                    "outputs": list(v.outputs),
                    "property": v.property_name,
                    "schedule": list(v.schedule),
                }
                for v in self.safety_violations
            ],
            "write_steps": self.write_steps,
        }

    def footprint_summary(self) -> str:
        """One-line register-footprint account, as printed by the CLI."""
        return (
            f"footprint: {self.memory_steps} memory steps "
            f"({self.write_steps} writes) over "
            f"{len(self.registers_written)} registers"
        )

    def summary(self) -> str:
        """One-line account of coverage and verdict."""
        closure = "complete" if self.complete else "truncated"
        verdict = "no violations" if self.ok else (
            f"{len(self.safety_violations)} safety, "
            f"{len(self.progress_violations)} progress violations"
        )
        health = ""
        if self.worker_retries or self.degraded:
            health = (
                f" [self-healed: {self.worker_retries} retries"
                f"{', degraded to serial' if self.degraded else ''}]"
            )
        durable = ""
        if self.interrupted:
            durable = (
                f" [checkpointed on {self.interrupted}; rerun with "
                "--resume to continue]"
            )
        return (
            f"explored {self.configs_explored} configurations "
            f"({closure}): {verdict}{health}{durable}"
        )


def _instance_input_sets(system: System) -> Dict[int, Set[Value]]:
    inputs: Dict[int, Set[Value]] = {}
    if system.workloads is None:
        raise ValueError(
            "exhaustive exploration requires static workloads (the input "
            "universe must be known upfront)"
        )
    for workload in system.workloads:
        for index, value in enumerate(workload, start=1):
            inputs.setdefault(index, set()).add(value)
    return inputs


def _check_config_safety(
    system: System,
    config: Configuration,
    k: int,
    inputs: Dict[int, Set[Value]],
) -> Optional[Tuple[str, int, Tuple[Value, ...], str]]:
    max_instance = max((len(p.outputs) for p in config.procs), default=0)
    for instance in range(1, max_instance + 1):
        outs = set(system.instance_outputs(config, instance))
        if not outs:
            continue
        if len(outs) > k:
            return (
                "k-Agreement",
                instance,
                tuple(sorted(map(repr, outs))),
                f"{len(outs)} distinct outputs exceed k={k}",
            )
        strays = outs - inputs.get(instance, set())
        if strays:
            return (
                "Validity",
                instance,
                tuple(sorted(map(repr, outs))),
                f"outputs {sorted(map(repr, strays))} were never proposed",
            )
    return None


def _expansion_pids(system: System, config: Configuration, reduction: str):
    """Processes to expand from *config* under the chosen reduction.

    ``"none"`` expands every enabled process.  ``"local-first"`` is a sound
    ample-set reduction: when some process's next step is an *invocation*
    or a *decision* — steps that touch only that process's local state, so
    they commute with every other process's transitions, cannot be
    disabled, and disable nothing — only the first such process is
    expanded.  Any interleaving of the full graph reorders (by repeatedly
    commuting independent adjacent steps) into one where enabled local
    steps run eagerly; local-step reordering leaves every process's local
    evolution, hence every Decide event and output set, unchanged, so
    exactly the same Validity/k-Agreement violations are reachable.
    Decisions only *add* outputs, so taking them eagerly can surface a
    violation earlier, never hide one.
    """
    enabled = system.enabled_pids(config)
    if reduction == "local-first":
        from repro.runtime.events import DecideEvent, InvokeEvent

        for pid in enabled:
            event = system.peek(config, pid)
            if isinstance(event, (InvokeEvent, DecideEvent)):
                return (pid,)
    return enabled


def _check_config_progress(
    system: System,
    config: Configuration,
    survivor_sets: Sequence[Tuple[int, ...]],
    solo_budget: int,
) -> Optional[Tuple[Tuple[int, ...], str]]:
    """First survivor set that cannot finish from *config*, or ``None``."""
    from repro.runtime.runner import run
    from repro.sched.round_robin import RoundRobinScheduler

    for survivors in survivor_sets:
        pending = [pid for pid in survivors if system.enabled(config, pid)]
        if not pending:
            continue
        try:
            tail = run(
                system,
                RoundRobinScheduler(subset=survivors),
                initial=config,
                max_steps=solo_budget,
            )
        except StepLimitExceeded:
            return (
                survivors,
                f"survivors {survivors} exceeded {solo_budget} "
                "steps running in isolation",
            )
        if not system.decided_all(tail.config, survivors):
            return (survivors, f"survivors {survivors} stalled before finishing")
    return None


def default_survivor_sets(n: int, m: int) -> List[Tuple[int, ...]]:
    """Every candidate survivor set of size ≤ m among ``n`` processes."""
    return [
        tuple(c) for size in range(1, m + 1) for c in combinations(range(n), size)
    ]


def _explore(
    cache_dir: Optional[str], journal_dir: Optional[str], system: System,
    **kwargs,
) -> ExplorationResult:
    """Run the engine in the journal named by ``journal_dir`` or ``cache_dir``.

    Under the older ``cache_dir`` name alone, a finished re-ask reports no
    recovery: it comes back as the cache it stands in for returned it.
    """
    from repro.explore.frontier import explore

    if cache_dir is None or journal_dir is not None:
        if cache_dir is not None and Path(cache_dir) != Path(journal_dir):
            raise ValueError(
                f"cache_dir {cache_dir!r} and journal_dir {journal_dir!r} "
                "name two stores; cache_dir is another name for journal_dir"
            )
        return explore(system, journal_dir=journal_dir, **kwargs)
    result = explore(system, journal_dir=cache_dir, **kwargs)
    if result.recovery is not None and result.recovery.checkpoint_finished:
        result.recovery = None
    return result


def explore_safety(
    system: System,
    k: int,
    *,
    max_configs: int = 200_000,
    stop_at_first: bool = True,
    reduction: str = "none",
    workers: int = 1,
    batch_size: int = 64,
    canonicalize: bool = False,
    cache_dir: Optional[str] = None,
    batch_timeout: Optional[float] = None,
    max_retries: int = 2,
    chaos=None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = 64,
    watchdog=None,
) -> ExplorationResult:
    """BFS the reachable configuration space, checking safety everywhere.

    ``reduction="local-first"`` enables a sound partial-order reduction
    (see :func:`_expansion_pids`) that typically shrinks the explored space
    severalfold without affecting verdicts; ``tests`` verify agreement with
    full exploration on small systems.

    ``workers > 1`` shards frontier expansion across that many OS processes
    (shared-nothing; the coordinator owns the visited set) with results
    merged in deterministic BFS order, so verdicts, counts, and witness
    schedules are identical for every worker count.  ``canonicalize=True``
    quotients the visited set by process-identity orbits — applied only
    when sound (anonymous automaton, static workloads, primitive layout;
    see :mod:`repro.explore.canonical`), silently inert otherwise.

    A worker that dies mid-batch is noticed at once; on a death or any
    other pool failure the coordinator rebuilds the pool and resubmits the
    whole batch, up to ``max_retries`` times with exponential backoff,
    before degrading to serial in-process expansion for the rest of the
    run.  ``batch_timeout`` (seconds) bounds how long it waits for any one
    batch, which only a wedged worker overruns, and takes the same path;
    the default ``None`` sets no bound.  ``chaos`` is a test hook (see
    :mod:`repro.faults.chaos`) invoked by each worker before expanding a
    chunk.

    ``journal_dir`` arms the durable run journal (see
    :mod:`repro.durable`): every merged batch is appended as a checksummed
    delta record and every ``checkpoint_every`` batches the coordinator
    state is compacted into a sealed checkpoint, so a run killed at any
    point — ``kill -9`` included — resumes from its last consistent prefix
    and ends bit-identical to an uninterrupted run, and a finished run
    answers a re-ask without exploring.  ``cache_dir`` is another name
    for ``journal_dir``; two different paths are a ``ValueError``.
    ``watchdog`` (a
    :class:`~repro.durable.watchdog.Watchdog`) is polled between batches;
    when it fires, the run checkpoints and returns early with
    ``result.interrupted`` set.
    """
    if reduction not in ("none", "local-first"):
        raise ValueError(f"unknown reduction {reduction!r}")
    return _explore(
        cache_dir, journal_dir, system,
        oracle="safety",
        k=k,
        max_configs=max_configs,
        stop_at_first=stop_at_first,
        reduction=reduction,
        workers=workers,
        batch_size=batch_size,
        canonicalize=canonicalize,
        batch_timeout=batch_timeout,
        max_retries=max_retries,
        chaos=chaos,
        checkpoint_every=checkpoint_every,
        watchdog=watchdog,
    )


def explore_progress_closure(
    system: System,
    m: int,
    *,
    max_configs: int = 20_000,
    solo_budget: int = 20_000,
    survivor_sets: Optional[Sequence[Tuple[int, ...]]] = None,
    workers: int = 1,
    batch_size: int = 16,
    canonicalize: bool = False,
    cache_dir: Optional[str] = None,
    batch_timeout: Optional[float] = None,
    max_retries: int = 2,
    chaos=None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = 64,
    watchdog=None,
) -> ExplorationResult:
    """From every reachable configuration, every ≤m survivor set must finish.

    This is the strongest finite rendition of m-obstruction-freedom the
    library offers: the adversarial prelude ranges over *all* reachable
    pasts, not a sampled family.  Exponential — reserve for tiny systems,
    and shard it with ``workers`` (the per-configuration survivor-closure
    checks dominate, so this oracle parallelizes well).
    """
    return _explore(
        cache_dir, journal_dir, system,
        oracle="progress",
        m=m,
        max_configs=max_configs,
        solo_budget=solo_budget,
        survivor_sets=survivor_sets,
        workers=workers,
        batch_size=batch_size,
        canonicalize=canonicalize,
        batch_timeout=batch_timeout,
        max_retries=max_retries,
        chaos=chaos,
        checkpoint_every=checkpoint_every,
        watchdog=watchdog,
    )
