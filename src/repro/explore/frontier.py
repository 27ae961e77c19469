"""The exploration engine: batched BFS, worker pool, symmetry, resume.

This module owns *how* the reachable configuration graph is walked; the
oracles that decide what counts as a violation live in
:mod:`repro.explore.checker`.  The design is shared-nothing:

* the **coordinator** (the calling process) owns the fingerprint-keyed
  visited set, the parent map used for witness reconstruction, and the
  frontier deque;
* **workers** (a ``multiprocessing`` pool, sidestepping the GIL) receive
  batches of configurations, run the oracle on each, compute successors,
  and ship back ``(successor, fingerprint, parent, pid)`` records plus any
  violation or failure — they never see the visited set.

Determinism is load-bearing: batches are contiguous slices of the frontier
in BFS order and worker results are merged in submission order, so the
visited set, ``configs_explored``, verdicts and witness schedules are
bit-identical for every ``workers`` value.  That is what lets the test
suite assert ``--workers 4`` certifies exactly what ``--workers 1`` does.

Fingerprints are blake2b digests of the packed canonical encoding (see
:mod:`repro.explore.packed`; ``hash()`` is salted per process and cannot
cross the pool boundary).  The frontier carries
:class:`~repro.explore.packed.PackedState` values: the pool ships each
as its process-record and bank fragments, which a worker's codec interns,
so decoding a parent is one lookup per fragment and only fragments the
worker has never seen are decoded; checkpoints store the joined bytes.
With ``canonicalize=True`` and a symmetric system (see
:mod:`repro.explore.canonical`) fingerprints are taken of the orbit
representative instead, deduplicating identity-permuted configurations;
the *actual* first-reached configuration of each orbit is the one
expanded, which keeps every parent chain a literal replayable schedule.

Worker-side exceptions never hang the pool: they are caught in the worker,
wrapped as :class:`EngineFailure` records, and re-raised by the
coordinator as :class:`~repro.errors.ExplorationEngineError`.
``KeyboardInterrupt`` tears the pool down (terminate + join) before
propagating.

What worker-side catching *cannot* cover is the worker dying outright
(OOM-kill, segfault, a chaos hook).  The pool is a set of daemonic
workers with one pipe each, and no thread: the coordinator reads results
in its own thread, waiting on the busy workers' pipes and process
sentinels together, so a death is noticed the moment it happens;
``batch_timeout`` additionally bounds a *wedged* worker.  On a
death, a timeout or any pool-infrastructure failure it discards the
partial batch, rebuilds the pool, backs off exponentially and resubmits —
up to ``max_retries`` times, after which it *degrades*: the pool is
abandoned and the rest of the run expands serially in-process.
That ladder is :class:`~repro.durable.pool.SupervisedPool`, shared with
the serve supervisor; a pool that cannot be built degrades at once.
Batches are merged all-or-nothing, so retried and degraded runs produce
verdicts bit-identical to healthy ones; the history is recorded in
``ExplorationResult.worker_retries`` / ``.degraded``.

Self-healing covers worker death; ``journal_dir`` covers *coordinator*
death.  With a journal armed, every merged batch is appended to an
append-only checksummed log as a :class:`_BatchDelta` — the merge's
decisions in fingerprints, a few dozen bytes per discovery — and at
``checkpoint_every`` batch boundaries where the log has outgrown the last
checkpoint (:meth:`~repro.durable.journal.RunJournal.should_compact`) the
aggregate coordinator state is compacted into a sealed checkpoint (see
:mod:`repro.durable`).  Recovery is checkpoint + delta replay: because
batches merge deterministically and ``step`` is pure, a run killed at any
instant (``kill -9`` included) resumes from its last consistent prefix,
loses at most one un-journaled batch of work, and finishes bit-identical
to a run that was never interrupted.  A :class:`~repro.durable.watchdog.Watchdog`, polled
between batches, turns deadlines / RSS ceilings / SIGTERM into a final
checkpoint and an early return with ``result.interrupted`` set.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.durable.journal import RunJournal
from repro.durable.pool import SupervisedPool, init_worker, make_pool
from repro.durable.retry import DEFAULT_REBUILD_POLICY
from repro.durable.watchdog import Watchdog
from repro.errors import ExplorationEngineError
from repro.explore import checker
from repro.explore.cache import exploration_key
from repro.explore.canonical import SymmetryClasses, symmetry_classes
from repro.explore.packed import PackedCodec, PackedState, config_fingerprint
from repro.faults.chaos import WorkerKill
from repro.memory.layout import RegisterCoord
from repro.memory.ops import is_write_access
from repro.runtime.events import MemoryEvent
from repro.telemetry.metrics import COUNT_BUCKETS, MetricsRegistry, MetricsSnapshot
from repro.telemetry.tracing import SpanRecord, chunk_lane, chunk_span_id
from repro.runtime.system import Configuration, System


@dataclass(frozen=True, slots=True)
class EngineFailure:
    """A worker-side exception, serialized across the pool boundary."""

    kind: str
    detail: str
    config_fingerprint: str
    traceback: str


@dataclass(frozen=True, slots=True)
class _Expansion:
    """Everything a worker learned about one frontier configuration.

    The footprint fields measure the expansion's own steps — one step per
    enabled pid — in the paper's space vocabulary: how many of them were
    shared-memory accesses, how many were writes, and which global register
    coordinates those writes landed on.  Each reachable edge is stepped
    exactly once, so the sums are a pure function of the explored graph and
    stay bit-identical across worker counts, batch sizes, and resumes.
    """

    fingerprint: str
    safety_problem: Optional[Tuple[str, int, Tuple, str]]
    progress_problem: Optional[Tuple[Tuple[int, ...], str]]
    #: ``(pid, carrier, fingerprint)`` per successor.
    successors: Tuple[Tuple[int, PackedState, str], ...]
    failure: Optional[EngineFailure]
    memory_inc: int = 0
    write_inc: int = 0
    writes: Tuple[RegisterCoord, ...] = ()
    #: Canonical packed bytes produced while fingerprinting successors —
    #: the deterministic input of the ``explore.packed.*`` counters.
    encoded_bytes: int = 0


@dataclass(frozen=True, slots=True)
class _WorkerContext:
    """Immutable per-run inputs every worker needs (sent once, pre-fork)."""

    system: System
    oracle: str
    k: Optional[int]
    inputs: Optional[Dict]
    reduction: str
    classes: Optional[SymmetryClasses]
    survivor_sets: Tuple[Tuple[int, ...], ...]
    solo_budget: int
    #: Chaos hook; workers call ``maybe_kill()`` once per chunk.
    chaos: Optional[WorkerKill] = None
    #: Whether the coordinator has a telemetry session; workers then meter
    #: their chunks and ship snapshots back for the deterministic merge.
    telemetry_enabled: bool = False
    #: Encodes fingerprints and carriers; its memos are per-process and
    #: dropped when the context is pickled to a spawned worker.
    codec: PackedCodec = dataclasses.field(default_factory=PackedCodec)


#: Worker-process slot for the run context (set by the pool initializer).
_WORKER: Optional[_WorkerContext] = None


def _set_worker(ctx: _WorkerContext) -> None:
    """Pool initializer: install the run context in this worker process.

    Under ``fork`` the context is inherited in memory (no System
    pickling); under ``spawn`` it is pickled once per worker.
    """
    global _WORKER
    # The one sanctioned worker-side global: the handoff slot for the
    # run context, written exactly once before any chunk runs.
    _WORKER = ctx  # repro: allow(CONC001)
    init_worker()


def _expand_one(
    ctx: _WorkerContext, fp: str, carrier: PackedState, ship: bool
) -> _Expansion:
    """Oracle-check one frontier carrier and compute its successors.

    With *ship* (a pool worker) each successor carrier holds just its
    fragments, taken here so the work counts as expansion and pickling
    only sends them; in-process carriers keep the configuration and never
    encode it again.
    """
    try:
        codec = ctx.codec
        config = carrier.configuration(codec)
        if ctx.oracle == "safety":
            problem = checker._check_config_safety(
                ctx.system, config, ctx.k, ctx.inputs
            )
            if problem is not None:
                return _Expansion(fp, problem, None, (), None)
            pids = checker._expansion_pids(ctx.system, config, ctx.reduction)
        else:
            stall = checker._check_config_progress(
                ctx.system, config, ctx.survivor_sets, ctx.solo_budget
            )
            if stall is not None:
                return _Expansion(fp, None, stall, (), None)
            pids = ctx.system.enabled_pids(config)
        successors: List[Tuple[int, PackedState, str]] = []
        memory_inc = write_inc = 0
        encoded_bytes = 0
        writes: List[RegisterCoord] = []
        for pid in pids:
            step = ctx.system.step(config, pid)
            succ_fp, data = config_fingerprint(codec, step.config, ctx.classes)
            encoded_bytes += len(data)
            # With symmetry classes the fingerprinted bytes describe the
            # orbit representative, not the successor itself, so only the
            # configuration rides; a pool worker's fragments come from the
            # memos the fingerprint just filled.
            if ship:
                succ = PackedState(codec.fragments(step.config))
            else:
                succ = PackedState(
                    data if ctx.classes is None else None, step.config, codec
                )
            successors.append((pid, succ, succ_fp))
            if isinstance(step.event, MemoryEvent):
                memory_inc += 1
                if is_write_access(step.event.op):
                    write_inc += 1
                    coord = ctx.system.layout.op_coord(step.event.op)
                    if coord is not None and coord not in writes:
                        writes.append(coord)
        return _Expansion(
            fp, None, None, tuple(successors), None,
            memory_inc, write_inc, tuple(writes), encoded_bytes,
        )
    except Exception as exc:  # noqa: BLE001 — everything must cross the pool
        failure = EngineFailure(
            kind=type(exc).__name__,
            detail=str(exc),
            config_fingerprint=fp,
            traceback=traceback.format_exc(),
        )
        return _Expansion(fp, None, None, (), failure)


def _expand_chunk(
    payload: Tuple[int, int, Optional[str], List[Tuple[str, PackedState]]],
) -> Tuple[List[_Expansion], Optional[MetricsSnapshot]]:
    """Worker entry point: expand a contiguous frontier slice, in order.

    *payload* is ``(batch_index, chunk_index, parent_span, items)`` — the
    trace coordinates ride with the work so the worker can mint its
    deterministic span identity without any cross-process counter.
    Alongside the expansions, ships back a picklable metrics snapshot of
    the chunk (``None`` when the run is untelemetered) carrying the
    chunk's span record; the coordinator folds snapshots in at the
    deterministic merge point, in submission order.
    """
    batch_index, chunk_index, parent, items = payload
    assert _WORKER is not None, "worker context not initialized"
    if _WORKER.chaos is not None:
        _WORKER.chaos.maybe_kill()
    return _expand_chunk_measured(
        _WORKER, items, batch=batch_index, chunk=chunk_index, parent=parent,
        ship=True,
    )


def _expand_chunk_measured(
    ctx: _WorkerContext,
    items: List[Tuple[str, PackedState]],
    *,
    batch: int = 0,
    chunk: int = 0,
    parent: Optional[str] = None,
    ship: bool = False,
) -> Tuple[List[_Expansion], Optional[MetricsSnapshot]]:
    """Expand *items* in order, metering the chunk when telemetry is on.

    *ship* readies the successors for the pool boundary (see
    :func:`_expand_one`), inside the chunk's clock.

    The chunk registry is process-local and fresh per chunk: counters are
    deterministic for a fixed ``workers`` value, durations are volatile by
    declaration, and nothing touches the per-step hot loop.  The returned
    snapshot piggybacks one ``explore.chunk`` span record whose id and
    lane are pure functions of ``(batch, chunk)`` — emitted only if and
    when the coordinator *accepts* the batch, so a retried or discarded
    submission leaves no span behind and durations never double-count.
    """
    if not ctx.telemetry_enabled:
        return [_expand_one(ctx, fp, carrier, ship) for fp, carrier in items], None
    registry = MetricsRegistry()
    wall0 = time.time()
    t0 = time.perf_counter()
    expansions = [_expand_one(ctx, fp, carrier, ship) for fp, carrier in items]
    elapsed = time.perf_counter() - t0
    registry.counter("explore.worker.chunks").inc()
    registry.counter("explore.worker.expansions").inc(len(expansions))
    # Deterministic: sums over the expanded configurations only, so they
    # are invariant under worker count and batch size like every other
    # non-volatile explore counter.
    registry.counter("explore.packed.configs_encoded").inc(
        sum(len(e.successors) for e in expansions)
    )
    registry.counter("explore.packed.bytes_encoded").inc(
        sum(e.encoded_bytes for e in expansions)
    )
    registry.histogram("explore.worker.chunk_seconds", volatile=True).observe(
        elapsed
    )
    record = SpanRecord(
        name="explore.chunk",
        span_id=chunk_span_id(batch, chunk),
        parent=parent,
        lane=chunk_lane(chunk),
        attrs=(("batch", batch), ("chunk", chunk),
               ("expansions", len(expansions))),
        t0=wall0,
        dur=elapsed,
        pid=os.getpid(),
    )
    return expansions, registry.snapshot(spans=(record,))


def _split(batch: List, parts: int) -> List[List]:
    """Split *batch* into ≤ *parts* contiguous, order-preserving chunks."""
    parts = min(parts, len(batch))
    size, rem = divmod(len(batch), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < rem else 0)
        chunks.append(batch[start:end])
        start = end
    return chunks


def _make_pool(workers: int, ctx: _WorkerContext):
    """Create the worker pool with the run context installed in each worker."""
    return make_pool(workers, initializer=_set_worker, initargs=(ctx,))


def _witness_schedule(
    parents: Dict[str, Tuple[Optional[str], Optional[int]]], fp: str
) -> Tuple[int, ...]:
    schedule: List[int] = []
    cursor: Optional[str] = fp
    while cursor is not None:
        parent, pid = parents[cursor]
        if pid is not None:
            schedule.append(pid)
        cursor = parent
    schedule.reverse()
    return tuple(schedule)


@dataclass(frozen=True)
class _BatchDelta:
    """One merged batch, as the journal record that replays the merge.

    Deltas carry the merge's *decisions*, not its data: frontier pops,
    counter increments, newly discovered ``(fingerprint, parent_fp, pid)``
    triples, and violations with their witness schedules already
    reconstructed.  Configurations themselves are deliberately absent —
    ``step`` is pure and deterministic, so replay re-derives each new
    frontier configuration from its (just-popped) parent in one step call.
    That keeps the steady-state journal write proportional to fingerprints
    (~70 bytes/config) instead of pickled state, and recovery is still
    checkpoint + replay with no oracle re-checks: a resumed coordinator is
    bit-identical to one that never stopped.
    """

    index: int
    popped: int
    explored_inc: int
    new_entries: Tuple[Tuple[str, str, int], ...]
    safety: Tuple[checker.SafetyCounterexample, ...]
    progress: Tuple[checker.ProgressCounterexample, ...]
    done: bool
    memory_inc: int = 0
    write_inc: int = 0
    #: Register coordinates first written by this batch, in merge order —
    #: replayed into ``ExplorationResult.registers_written`` on recovery so
    #: a resumed run's footprint is bit-identical to an uninterrupted one.
    new_writes: Tuple[RegisterCoord, ...] = ()


def _merge_batch(
    index: int,
    popped: int,
    expansions: List[_Expansion],
    parents: Dict[str, Tuple[Optional[str], Optional[int]]],
    frontier: Deque[Tuple[str, PackedState]],
    result: checker.ExplorationResult,
    stop_at_first: bool,
) -> Tuple[_BatchDelta, bool]:
    """Merge one fully-expanded batch into the coordinator state.

    Raises :class:`~repro.errors.ExplorationEngineError` *before* touching
    any state if the batch carries a worker failure, so a failed batch
    leaves the coordinator (and hence any journal checkpoint of it)
    exactly as consistent as an unattempted one.  Returns the delta that
    reproduces this merge plus the early-stop flag.
    """
    for expansion in expansions:
        if expansion.failure is not None:
            raise ExplorationEngineError(expansion.failure)
    explored_inc = 0
    memory_inc = write_inc = 0
    new_writes: List[RegisterCoord] = []
    new_entries: List[Tuple[str, str, int]] = []
    safety_added: List[checker.SafetyCounterexample] = []
    progress_added: List[checker.ProgressCounterexample] = []
    done = False
    for expansion in expansions:
        explored_inc += 1
        memory_inc += expansion.memory_inc
        write_inc += expansion.write_inc
        for coord in expansion.writes:
            if coord not in result.registers_written and coord not in new_writes:
                new_writes.append(coord)
        if expansion.safety_problem is not None:
            prop, instance, outs, detail = expansion.safety_problem
            safety_added.append(
                checker.SafetyCounterexample(
                    property_name=prop,
                    instance=instance,
                    outputs=outs,
                    schedule=_witness_schedule(parents, expansion.fingerprint),
                    detail=detail,
                )
            )
            if stop_at_first:
                done = True
                break
            continue  # never expand beyond a violating configuration
        if expansion.progress_problem is not None:
            survivors, detail = expansion.progress_problem
            progress_added.append(
                checker.ProgressCounterexample(
                    survivors=survivors,
                    schedule_to_config=_witness_schedule(
                        parents, expansion.fingerprint
                    ),
                    detail=detail,
                )
            )
            done = True
            break
        for pid, successor, succ_fp in expansion.successors:
            if succ_fp not in parents:
                parents[succ_fp] = (expansion.fingerprint, pid)
                new_entries.append((succ_fp, expansion.fingerprint, pid))
                frontier.append((succ_fp, successor))
    result.configs_explored += explored_inc
    result.memory_steps += memory_inc
    result.write_steps += write_inc
    result.registers_written.update(new_writes)
    result.safety_violations.extend(safety_added)
    result.progress_violations.extend(progress_added)
    if done:
        result.complete = False
    delta = _BatchDelta(
        index=index,
        popped=popped,
        explored_inc=explored_inc,
        new_entries=tuple(new_entries),
        safety=tuple(safety_added),
        progress=tuple(progress_added),
        done=done,
        memory_inc=memory_inc,
        write_inc=write_inc,
        new_writes=tuple(new_writes),
    )
    return delta, done


def _apply_delta(
    system: System,
    delta: _BatchDelta,
    parents: Dict[str, Tuple[Optional[str], Optional[int]]],
    frontier: Deque[Tuple[str, PackedState]],
    result: checker.ExplorationResult,
    codec: PackedCodec,
) -> bool:
    """Replay one journaled batch merge during recovery.

    New frontier configurations are re-derived by stepping their parents
    — the entries this very delta pops — through the pure transition
    function, so the journal never needs to store configurations (see
    :class:`_BatchDelta`).  One step per recovered discovery, no oracle
    re-checks.
    """
    popped: Dict[str, PackedState] = {}
    for _ in range(delta.popped):
        fp, carrier = frontier.popleft()
        popped[fp] = carrier
    for succ_fp, parent_fp, pid in delta.new_entries:
        parents[succ_fp] = (parent_fp, pid)
        parent = popped[parent_fp].configuration(codec)
        frontier.append(
            (succ_fp, PackedState(None, system.step(parent, pid).config, codec))
        )
    result.configs_explored += delta.explored_inc
    result.memory_steps += delta.memory_inc
    result.write_steps += delta.write_inc
    result.registers_written.update(delta.new_writes)
    result.safety_violations.extend(delta.safety)
    result.progress_violations.extend(delta.progress)
    if delta.done:
        result.complete = False
    return delta.done


def _state_payload(
    parents: Dict[str, Tuple[Optional[str], Optional[int]]],
    frontier: Deque[Tuple[str, PackedState]],
    result: checker.ExplorationResult,
) -> Dict:
    """Absolute coordinator state, as an *unfinished* checkpoint payload.

    The frontier is stored as ``(fingerprint, packed bytes)`` pairs.
    """
    return {
        "finished": False,
        "parents": parents,
        "frontier": [(fp, carrier.data) for fp, carrier in frontier],
        "explored": result.configs_explored,
        "safety": list(result.safety_violations),
        "progress": list(result.progress_violations),
        "memory_steps": result.memory_steps,
        "write_steps": result.write_steps,
        "registers_written": set(result.registers_written),
    }


def explore(
    system: System,
    *,
    oracle: str,
    k: Optional[int] = None,
    m: Optional[int] = None,
    max_configs: int,
    stop_at_first: bool = True,
    reduction: str = "none",
    solo_budget: int = 20_000,
    survivor_sets: Optional[Sequence[Tuple[int, ...]]] = None,
    workers: int = 1,
    batch_size: int = 64,
    canonicalize: bool = False,
    batch_timeout: Optional[float] = None,
    max_retries: int = 2,
    chaos: Optional[object] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = 64,
    watchdog: Optional[Watchdog] = None,
) -> checker.ExplorationResult:
    """Run one exploration with the chosen oracle; the library's one engine.

    Public entry points are :func:`repro.explore.explore_safety` and
    :func:`repro.explore.explore_progress_closure`, which document the
    oracle-specific semantics; every keyword here mirrors theirs.
    """
    if oracle not in ("safety", "progress"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if batch_timeout is not None and batch_timeout <= 0:
        raise ValueError(f"batch_timeout must be positive, got {batch_timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if oracle == "safety":
        if k is None:
            raise ValueError("safety oracle requires k")
        inputs = checker._instance_input_sets(system)
        sets: Tuple[Tuple[int, ...], ...] = ()
    else:
        if m is None and survivor_sets is None:
            raise ValueError("progress oracle requires m or survivor_sets")
        inputs = None
        if survivor_sets is None:
            survivor_sets = checker.default_survivor_sets(system.n, m)
        sets = tuple(tuple(s) for s in survivor_sets)

    classes = symmetry_classes(system) if canonicalize else None

    # Journal recovery: a finished checkpoint answers the run outright, so
    # it comes before anything only exploring needs; an unfinished one is
    # the resume base.
    runlog = None
    recovery = None
    recovered_state = None
    recovered_records: List[Tuple[int, _BatchDelta]] = []
    if journal_dir is not None:
        key = exploration_key(
            system,
            oracle=oracle,
            k=k,
            survivor_sets=sets,
            solo_budget=solo_budget,
            reduction=reduction,
            canonicalized=classes is not None,
            stop_at_first=stop_at_first,
        )
        runlog, recovered_state, recovered_records, recovery = (
            RunJournal.open_run(journal_dir, key)
        )
        if recovery is not None and recovery.checkpoint_finished:
            prior: checker.ExplorationResult = recovered_state["result"]
            prior.recovery = recovery
            return prior

    ctx = _WorkerContext(
        system=system,
        oracle=oracle,
        k=k,
        inputs=inputs,
        reduction=reduction,
        classes=classes,
        survivor_sets=sets,
        solo_budget=solo_budget,
        chaos=chaos,
        telemetry_enabled=telemetry.active() is not None,
    )
    codec = ctx.codec

    if recovered_state is not None:
        parents = recovered_state["parents"]
        frontier: Deque[Tuple[str, PackedState]] = deque(
            (fp, PackedState(blob)) for fp, blob in recovered_state["frontier"]
        )
        explored = recovered_state["explored"]
        base_safety = list(recovered_state["safety"])
        base_progress = list(recovered_state["progress"])
        base_footprint = (
            recovered_state.get("memory_steps", 0),
            recovered_state.get("write_steps", 0),
            set(recovered_state.get("registers_written", ())),
        )
    else:
        initial = system.initial_configuration()
        initial_fp, initial_data = config_fingerprint(codec, initial, classes)
        parents = {initial_fp: (None, None)}
        frontier = deque([(
            initial_fp,
            PackedState(
                initial_data if classes is None else None, initial, codec
            ),
        )])
        explored = 0
        base_safety, base_progress = [], []
        base_footprint = (0, 0, set())

    result = checker.ExplorationResult(configs_explored=explored, complete=True)
    result.safety_violations.extend(base_safety)
    result.progress_violations.extend(base_progress)
    result.memory_steps, result.write_steps = base_footprint[0], base_footprint[1]
    result.registers_written = base_footprint[2]
    result.recovery = recovery

    done = False
    batch_index = 0
    if runlog is not None:
        # Replay the contiguous post-checkpoint deltas; the merge already
        # happened once, so this is deterministic re-stepping with no
        # oracle re-checks.
        for _, delta in recovered_records:
            done = (
                _apply_delta(system, delta, parents, frontier, result, codec)
                or done
            )
        batch_index = runlog.next_index

    # A journaled run always has a watchdog armed (even a limitless one):
    # it is the mailbox through which the CLI's SIGTERM handler requests
    # the checkpoint-then-exit path.
    wd = watchdog
    if wd is None and runlog is not None:
        wd = Watchdog()

    telemetry.gauge(
        "footprint.registers_provisioned", system.layout.register_count()
    )
    telemetry.gauge("progress.total", max_configs)

    pool = None
    if workers > 1:
        # Rebuilt through the module global, so wrappers installed on
        # _make_pool apply to every pool this run builds.
        pool = SupervisedPool(
            lambda: _make_pool(workers, ctx),
            dataclasses.replace(DEFAULT_REBUILD_POLICY, max_retries=max_retries),
            retry_timeouts=True,
        )
    interrupted: Optional[str] = None
    try:
        if wd is not None:
            wd.__enter__()
        try:
            while frontier and not done:
                if wd is not None:
                    interrupted = wd.poll()
                    if interrupted is not None:
                        break
                budget = max_configs - result.configs_explored
                if budget <= 0:
                    result.complete = False
                    break
                count = min(len(frontier), budget, batch_size * workers)
                batch = [frontier.popleft() for _ in range(count)]
                with telemetry.span(
                    "explore.batch", batch=batch_index, size=count
                ) as sp:
                    expansions = _expand_batch(
                        pool, ctx, batch, workers,
                        batch_timeout=batch_timeout,
                        result=result,
                        batch_index=batch_index,
                        parent=sp.span_id,
                    )
                    delta, done = _merge_batch(
                        batch_index, count, expansions, parents, frontier,
                        result, stop_at_first,
                    )
                    sp.set(
                        explored=delta.explored_inc,
                        discovered=len(delta.new_entries),
                    )
                _batch_telemetry(count, delta, len(frontier), len(parents), result)
                if runlog is not None:
                    runlog.record(batch_index, delta)
                batch_index += 1
                if (
                    runlog is not None
                    and not done
                    and batch_index % checkpoint_every == 0
                    and runlog.should_compact()
                ):
                    runlog.checkpoint(
                        _state_payload(parents, frontier, result),
                        batch_index,
                    )
        finally:
            if pool is not None:
                pool.close()
            if wd is not None:
                wd.__exit__(None, None, None)

        result.configs_discovered = len(parents)
        if interrupted is not None:
            result.complete = False
            result.interrupted = interrupted
            telemetry.mark("explore.interrupted", reason=interrupted)
        if runlog is not None:
            if result.complete or not result.ok:
                runlog.finish({"result": result}, batch_index)
            else:
                runlog.checkpoint(
                    _state_payload(parents, frontier, result), batch_index
                )
        return result
    finally:
        # On every exit path — returns, engine errors, Ctrl-C — fsync and
        # close the journal so the appended deltas are the durable record
        # of everything this run merged.
        if runlog is not None:
            runlog.close()


def _batch_telemetry(
    count: int,
    delta: _BatchDelta,
    frontier_len: int,
    discovered: int,
    result: checker.ExplorationResult,
) -> None:
    """Publish one merged batch's metrics (no-op when telemetry is off).

    Everything here is a pure function of the deterministic BFS — counts,
    set sizes, footprint — so these instruments stay on the deterministic
    side of the export and are pinned by the golden-stream tests.
    """
    if telemetry.active() is None:
        return
    telemetry.counter("explore.batches")
    telemetry.counter("explore.configs_explored", delta.explored_inc)
    telemetry.counter("footprint.memory_steps", delta.memory_inc)
    telemetry.counter("footprint.write_steps", delta.write_inc)
    telemetry.observe("explore.batch_size", count, bounds=COUNT_BUCKETS)
    telemetry.gauge("explore.frontier_size", frontier_len)
    telemetry.gauge("explore.configs_discovered", discovered)
    telemetry.gauge("footprint.registers_written", len(result.registers_written))
    telemetry.gauge("progress.done", result.configs_explored)


def _expand_batch(
    pool: Optional[SupervisedPool],
    ctx: _WorkerContext,
    batch: List[Tuple[str, PackedState]],
    workers: int,
    *,
    batch_timeout: Optional[float],
    result: checker.ExplorationResult,
    batch_index: int = 0,
    parent: Optional[str] = None,
) -> List[_Expansion]:
    """Expand one batch through the pool, or in-process without one.

    All-or-nothing: the pool resubmits a failed batch whole, and once it
    degrades the batch is recomputed in-process, so retried and degraded
    runs stay bit-identical to healthy ones.  A worker death is detected
    as it happens; ``batch_timeout`` (``None``: no bound) only catches a
    wedged worker.
    """
    mapped = None
    if pool is not None:
        payloads = [
            (batch_index, index, parent, chunk)
            for index, chunk in enumerate(_split(batch, workers))
        ]
        seen = pool.incidents
        mapped = pool.map(_expand_chunk, payloads, timeout=batch_timeout)
        if pool.incidents > seen:
            result.worker_retries += pool.incidents - seen
            # Volatile: pool failures are host events, not run semantics.
            telemetry.counter(
                "explore.worker_retries", pool.incidents - seen, volatile=True
            )
        if mapped is None and not result.degraded:
            result.degraded = True
            telemetry.mark("explore.degraded")
    if mapped is None:
        mapped = [
            _expand_chunk_measured(ctx, batch, batch=batch_index, parent=parent)
        ]
    # Fold worker metrics in only once the batch is accepted, in
    # submission order — discarded attempts leave no trace (their
    # snapshots, span records included, die with the attempt), which
    # keeps retried runs' deterministic metrics identical and span
    # durations single-counted.
    for _, snapshot in mapped:
        telemetry.merge(snapshot)
    return [e for expansions, _ in mapped for e in expansions]
