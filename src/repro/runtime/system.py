"""Configurations and the pure step function of the simulated system.

A :class:`System` is the immutable description of a run setup: one
:class:`~repro.runtime.automaton.ProtocolAutomaton` shared by ``n``
processes, one input *workload* per process (the sequence of values it will
propose), and a :class:`~repro.memory.layout.MemoryLayout`.

A :class:`Configuration` is a value: the local state of every process plus
the contents of every register (paper §2).  :meth:`System.step` is a pure
function ``(configuration, pid) -> (configuration, event)``; an execution is
nothing but the fold of a schedule over it.  This purity is load-bearing:

* replays are exact, so the lower-bound constructions can *splice* execution
  fragments and then certify the result by re-running the spliced schedule;
* configurations are hashable, so exhaustive exploration and fragment search
  (:mod:`repro.lowerbounds.fragments`) can maintain visited sets;
* "poised" steps — a central notion in covering arguments — are inspectable
  via :meth:`System.peek`, which computes a step without committing it.

One step performs exactly one of: an operation invocation, one atomic
shared-memory access, or an operation response (decision).  Frame opening /
closing and local computation are folded into the same step as the access
they surround, bounded by :data:`MAX_INTERNAL_TRANSITIONS` to catch
non-productive automata.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Tuple

from repro._types import BOT, Value
from repro.errors import (
    ConfigurationError,
    NotEnabledError,
    ProtocolViolation,
)
from repro.memory.layout import (
    ImplementedBinding,
    MemoryLayout,
    MemoryState,
    PrimitiveBinding,
)
from repro.memory.ops import ReadOp, WriteOp
from repro.runtime.automaton import Context, Decide, ProtocolAutomaton
from repro.runtime.events import DecideEvent, Event, InvokeEvent, MemoryEvent
from repro.runtime.frames import Frame, ImplContext, Return

#: Cap on frame-open/return/local transitions folded into a single step.
MAX_INTERNAL_TRANSITIONS = 64


@dataclass(frozen=True, slots=True)
class Slot:
    """One operation-local thread: its state and (optionally) a live frame."""

    thread: int
    state: Any
    frame: Optional[Frame] = None


@dataclass(frozen=True, slots=True)
class ActiveOp:
    """An in-flight ``Propose``: its threads and whose turn it is.

    Threads of one operation are interleaved round-robin at the granularity
    of single atomic accesses — a fair deterministic sub-schedule, which is
    one of the legal interleavings the paper's model allows and preserves
    the starvation-rescue behaviour Figure 5's second thread exists for.
    """

    invocation: int
    input: Value
    slots: Tuple[Slot, ...]
    turn: int = 0


@dataclass(frozen=True, slots=True)
class ProcState:
    """Complete local state of one process.

    ``obj_persistent`` carries per-implemented-object cross-operation state
    (e.g. snapshot sequence numbers) as a name-sorted tuple of pairs so the
    whole record stays hashable.
    """

    persistent: Any
    obj_persistent: Tuple[Tuple[str, Any], ...]
    active: Optional[ActiveOp]
    next_input: int
    outputs: Tuple[Value, ...]

    def object_state(self, obj: str) -> Any:
        """This process's persistent state for implemented object *obj*."""
        for name, state in self.obj_persistent:
            if name == obj:
                return state
        raise ProtocolViolation(f"no persistent state for object {obj!r}")

    def with_object_state(self, obj: str, state: Any) -> "ProcState":
        """Copy of this record with *obj*'s persistent state replaced."""
        updated = tuple(
            (name, state if name == obj else old)
            for name, old in self.obj_persistent
        )
        return ProcState(
            persistent=self.persistent,
            obj_persistent=updated,
            active=self.active,
            next_input=self.next_input,
            outputs=self.outputs,
        )


@dataclass(frozen=True, slots=True)
class Configuration:
    """Global state: every process's local state + every register's value."""

    procs: Tuple[ProcState, ...]
    memory: MemoryState

    @property
    def n(self) -> int:
        return len(self.procs)


@dataclass(frozen=True, slots=True)
class StepResult:
    config: Configuration
    event: Event


# System crosses the pool boundary only via the fork start method (the
# spawn path default-pickles it, which is correct: automaton, workloads
# and layout are all plain immutable values with no fds, locks, or memo
# state — there is nothing a custom reduction would need to drop).
class System:  # repro: allow(CONC002)
    """A fixed protocol + workload + memory layout; pure step semantics."""

    def __init__(
        self,
        automaton: ProtocolAutomaton,
        workloads: Optional[Sequence[Sequence[Value]]] = None,
        layout: Optional[MemoryLayout] = None,
        *,
        n: Optional[int] = None,
        workload_fn=None,
    ) -> None:
        """Fix the protocol, the proposals, and the memory.

        Proposals come either from static ``workloads`` (one value sequence
        per process) or from a *dynamic* ``workload_fn(pid, invocation,
        outputs) -> value | None`` — called at invocation time with the
        process's outputs so far; ``None`` means the process is done.  The
        function must be deterministic and pure (it is consulted from
        ``enabled`` too), which keeps executions replayable.  Dynamic
        workloads power adaptive clients such as the universal
        construction's re-proposal loop.
        """
        if (workloads is None) == (workload_fn is None):
            raise ConfigurationError(
                "provide exactly one of workloads / workload_fn"
            )
        self.automaton = automaton
        if workload_fn is not None:
            if n is None:
                raise ConfigurationError("workload_fn requires explicit n")
            self.workloads = None
            self.workload_fn = workload_fn
            self.n = n
        else:
            if not workloads:
                raise ConfigurationError("a system needs at least one process")
            self.workloads: Tuple[Tuple[Value, ...], ...] = tuple(
                tuple(w) for w in workloads
            )
            self.workload_fn = None
            self.n = len(self.workloads)
        self.layout = layout if layout is not None else automaton.default_layout()
        self._contexts = tuple(
            Context(
                pid=pid,
                n=self.n,
                params=automaton.params,
                anonymous=automaton.anonymous,
            )
            for pid in range(self.n)
        )
        self._implemented = tuple(
            sorted(
                name
                for name in self.layout.object_names
                if isinstance(self.layout.binding(name), ImplementedBinding)
            )
        )
        self._impl_contexts = {
            (pid, name): ImplContext(
                pid=pid,
                n=self.n,
                params=self.layout.binding(name).impl.params,
                banks=self.layout.binding(name).banks,
                anonymous=automaton.anonymous,
            )
            for pid in range(self.n)
            for name in self._implemented
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def context(self, pid: int) -> Context:
        """The per-process execution context handed to the automaton."""
        return self._contexts[pid]

    def initial_configuration(self) -> Configuration:
        """The configuration all executions start from (paper §2)."""
        procs = []
        for pid in range(self.n):
            ctx = self._contexts[pid]
            obj_persistent = tuple(
                (
                    name,
                    self.layout.binding(name).impl.initial_persistent(
                        self._impl_contexts[(pid, name)]
                    ),
                )
                for name in self._implemented
            )
            procs.append(
                ProcState(
                    persistent=self.automaton.initial_persistent(ctx),
                    obj_persistent=obj_persistent,
                    active=None,
                    next_input=0,
                    outputs=(),
                )
            )
        return Configuration(procs=tuple(procs), memory=self.layout.initial_memory())

    # ------------------------------------------------------------------ #
    # Enabledness
    # ------------------------------------------------------------------ #

    def _next_value(self, proc: ProcState, pid: int):
        """The process's next proposal, or ``None`` when it is done."""
        if self.workload_fn is not None:
            return self.workload_fn(pid, proc.next_input + 1, proc.outputs)
        workload = self.workloads[pid]
        if proc.next_input < len(workload):
            return workload[proc.next_input]
        return None

    def enabled(self, config: Configuration, pid: int) -> bool:
        """A process is enabled unless it has completed its whole workload."""
        proc = config.procs[pid]
        if proc.active is not None:
            return True
        return self._next_value(proc, pid) is not None

    def enabled_pids(self, config: Configuration) -> Tuple[int, ...]:
        """All processes with an enabled step in *config*."""
        return tuple(pid for pid in range(self.n) if self.enabled(config, pid))

    def all_halted(self, config: Configuration) -> bool:
        """True iff no process has a step left (workloads exhausted)."""
        return not self.enabled_pids(config)

    def decided_all(self, config: Configuration, pids: Iterable[int]) -> bool:
        """True iff every pid in *pids* completed every workload invocation."""
        return all(
            config.procs[pid].active is None
            and self._next_value(config.procs[pid], pid) is None
            for pid in pids
        )

    # ------------------------------------------------------------------ #
    # The step function
    # ------------------------------------------------------------------ #

    def step(self, config: Configuration, pid: int) -> StepResult:
        """Perform process *pid*'s unique next step.  Pure.

        Raises :class:`~repro.errors.NotEnabledError` if *pid* has no step.
        """
        if pid < 0 or pid >= self.n:
            raise NotEnabledError(f"no process with id {pid}")
        proc = config.procs[pid]
        if proc.active is None:
            return self._invoke(config, pid, proc)
        return self._advance(config, pid, proc)

    def peek(self, config: Configuration, pid: int) -> Event:
        """The event process *pid*'s next step would produce (no commit).

        Requires a pure-state automaton; procedural protocols (whose state
        advances generators in place) reject peeking.
        """
        if not getattr(self.automaton, "supports_peek", True):
            raise ProtocolViolation(
                f"{self.automaton.name} does not support peek (its states "
                "are not forkable); use a frozen-state automaton"
            )
        return self.step(config, pid).event

    def _invoke(
        self, config: Configuration, pid: int, proc: ProcState
    ) -> StepResult:
        value = self._next_value(proc, pid)
        if value is None:
            raise NotEnabledError(f"process {pid} has completed its workload")
        ctx = self._contexts[pid]
        invocation = proc.next_input + 1
        thread_states = self.automaton.begin(ctx, proc.persistent, value, invocation)
        if len(thread_states) != self.automaton.n_threads:
            raise ProtocolViolation(
                f"{self.automaton.name}: begin returned {len(thread_states)} "
                f"thread states, expected {self.automaton.n_threads}"
            )
        slots = tuple(
            Slot(thread=i, state=state) for i, state in enumerate(thread_states)
        )
        new_proc = ProcState(
            persistent=proc.persistent,
            obj_persistent=proc.obj_persistent,
            active=ActiveOp(invocation=invocation, input=value, slots=slots),
            next_input=proc.next_input + 1,
            outputs=proc.outputs,
        )
        new_config = _replace_proc(config, pid, new_proc)
        return StepResult(new_config, InvokeEvent(pid, invocation, value))

    def _advance(
        self, config: Configuration, pid: int, proc: ProcState
    ) -> StepResult:
        ctx = self._contexts[pid]
        active = proc.active
        assert active is not None
        idx = active.turn
        slot = active.slots[idx]
        next_turn = (idx + 1) % len(active.slots)
        memory = config.memory

        for _ in range(MAX_INTERNAL_TRANSITIONS):
            if slot.frame is None:
                action = self.automaton.pending(ctx, slot.thread, slot.state)
                if isinstance(action, Decide):
                    thread_states = tuple(
                        s.state if s.thread != slot.thread else slot.state
                        for s in active.slots
                    )
                    persistent = self.automaton.finalize_persistent(
                        ctx, action, thread_states
                    )
                    new_proc = ProcState(
                        persistent=persistent,
                        obj_persistent=proc.obj_persistent,
                        active=None,
                        next_input=proc.next_input,
                        outputs=proc.outputs + (action.output,),
                    )
                    event: Event = DecideEvent(
                        pid, active.invocation, action.output, slot.thread
                    )
                    return StepResult(_replace_proc(config, pid, new_proc), event)
                op = action
                binding = self.layout.binding(op.obj)
                if isinstance(binding, PrimitiveBinding):
                    memory, response = self.layout.apply_primitive(memory, op)
                    new_state = self.automaton.apply(
                        ctx, slot.thread, slot.state, response
                    )
                    slot = Slot(slot.thread, new_state, None)
                    event = MemoryEvent(
                        pid, active.invocation, op, response, slot.thread
                    )
                    return self._commit(config, pid, proc, active, idx, slot,
                                        next_turn, memory, event)
                # Implemented object: open a frame (free) and keep going.
                impl = binding.impl
                ictx = self._impl_contexts[(pid, op.obj)]
                frame_state = impl.begin(ictx, proc.object_state(op.obj), op)
                slot = Slot(slot.thread, slot.state, Frame(op.obj, frame_state))
                continue

            # A frame is live: advance it.
            frame = slot.frame
            binding = self.layout.binding(frame.obj)
            impl = binding.impl
            ictx = self._impl_contexts[(pid, frame.obj)]
            frame_action = impl.pending(ictx, frame.state)
            if isinstance(frame_action, Return):
                proc = proc.with_object_state(frame.obj, frame_action.persistent)
                new_state = self.automaton.apply(
                    ctx, slot.thread, slot.state, frame_action.response
                )
                slot = Slot(slot.thread, new_state, None)
                continue
            reg_op = frame_action
            if not isinstance(reg_op, (ReadOp, WriteOp)):
                raise ProtocolViolation(
                    f"{impl.name}: frames may only issue register reads/writes, "
                    f"got {reg_op!r}"
                )
            if reg_op.obj not in ictx.banks:
                raise ProtocolViolation(
                    f"{impl.name}: access to bank {reg_op.obj!r} outside its "
                    f"banks {ictx.banks}"
                )
            memory, response = self.layout.apply_primitive(memory, reg_op)
            new_frame_state = impl.apply(ictx, frame.state, response)
            slot = Slot(slot.thread, slot.state, Frame(frame.obj, new_frame_state))
            event = MemoryEvent(
                pid, active.invocation, reg_op, response, slot.thread, in_frame=True
            )
            return self._commit(config, pid, proc, active, idx, slot,
                                next_turn, memory, event)

        raise ProtocolViolation(
            f"{self.automaton.name}: exceeded {MAX_INTERNAL_TRANSITIONS} internal "
            "transitions without a shared-memory access or decision"
        )

    def _commit(
        self,
        config: Configuration,
        pid: int,
        proc: ProcState,
        active: ActiveOp,
        idx: int,
        slot: Slot,
        next_turn: int,
        memory: MemoryState,
        event: Event,
    ) -> StepResult:
        new_slots = active.slots[:idx] + (slot,) + active.slots[idx + 1 :]
        new_active = ActiveOp(
            invocation=active.invocation,
            input=active.input,
            slots=new_slots,
            turn=next_turn,
        )
        new_proc = ProcState(
            persistent=proc.persistent,
            obj_persistent=proc.obj_persistent,
            active=new_active,
            next_input=proc.next_input,
            outputs=proc.outputs,
        )
        new_config = Configuration(
            procs=_replace_in_tuple(config.procs, pid, new_proc), memory=memory
        )
        return StepResult(new_config, event)

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #

    def outputs(self, config: Configuration) -> Tuple[Tuple[Value, ...], ...]:
        """Per-process tuples of outputs produced so far."""
        return tuple(proc.outputs for proc in config.procs)

    def instance_outputs(self, config: Configuration, instance: int) -> Tuple[Value, ...]:
        """Outputs produced for repeated-agreement *instance* (1-based)."""
        return tuple(
            proc.outputs[instance - 1]
            for proc in config.procs
            if len(proc.outputs) >= instance
        )


def _replace_proc(
    config: Configuration, pid: int, proc: ProcState
) -> Configuration:
    return Configuration(
        procs=_replace_in_tuple(config.procs, pid, proc), memory=config.memory
    )


def _replace_in_tuple(items: Tuple[Any, ...], index: int, item: Any) -> Tuple[Any, ...]:
    return items[:index] + (item,) + items[index + 1 :]


# ---------------------------------------------------------------------- #
# Stable fingerprints
#
# These are the *definitional* fingerprints: a recursive, type-tagged
# hash over the frozen-dataclass graph.  The exploration hot path keys
# its visited sets with the packed codec instead
# (:mod:`repro.explore.packed` hashes an invertible byte encoding, which
# is both faster and checkpoint-stable); stable_fingerprint keys the
# explore and campaign run descriptors, and the property tests check that it
# separates configurations exactly as the packed keys do.
# ---------------------------------------------------------------------- #

def _feed_fingerprint(h, value: Any) -> None:
    """Feed a canonical, type-tagged encoding of *value* into hash *h*.

    The encoding must be identical across interpreter processes — Python's
    built-in ``hash`` is salted per process (``PYTHONHASHSEED``), so it
    cannot key a visited set that is shared between exploration workers or
    persisted to disk.  Every composite is length- and type-tagged so that
    distinct structures cannot collide by concatenation.
    """
    if value is None:
        h.update(b"N;")
    elif value is BOT:
        h.update(b"B;")
    elif isinstance(value, bool):
        h.update(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        data = str(value).encode()
        h.update(b"i%d:" % len(data) + data)
    elif isinstance(value, float):
        data = value.hex().encode()
        h.update(b"f%d:" % len(data) + data)
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(value, bytes):
        h.update(b"y%d:" % len(value) + value)
    elif isinstance(value, (tuple, list)):
        h.update(b"t%d:" % len(value))
        for item in value:
            _feed_fingerprint(h, item)
    elif isinstance(value, (set, frozenset)):
        # Hash elements independently and combine order-insensitively.
        digests = sorted(
            hashlib.blake2b(_encode_once(item), digest_size=16).digest()
            for item in value
        )
        h.update(b"e%d:" % len(digests))
        for digest in digests:
            h.update(digest)
    elif isinstance(value, dict):
        items = sorted(
            (hashlib.blake2b(_encode_once(key), digest_size=16).digest(), key, val)
            for key, val in value.items()
        )
        h.update(b"d%d:" % len(items))
        for _, key, val in items:
            _feed_fingerprint(h, key)
            _feed_fingerprint(h, val)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__qualname__.encode()
        fields = dataclasses.fields(value)
        h.update(b"D%d:" % len(name) + name + b"%d:" % len(fields))
        for field_ in fields:
            _feed_fingerprint(h, field_.name)
            _feed_fingerprint(h, getattr(value, field_.name))
    else:
        # Fallback for exotic hashable values: require a stable repr.
        data = repr(value).encode()
        h.update(b"r%d:" % len(data) + data)


def _encode_once(value: Any) -> bytes:
    buffer = hashlib.blake2b(digest_size=16)
    _feed_fingerprint(buffer, value)
    return buffer.digest()


def stable_fingerprint(value: Any) -> str:
    """A process- and run-stable hex fingerprint of an immutable value.

    Unlike ``hash()``, the result does not depend on ``PYTHONHASHSEED`` or
    object identity, so fingerprints computed by different worker processes
    (or in a previous run, for a persisted run journal) agree.
    Covers the value vocabulary of the runtime: primitives, ⊥, tuples,
    frozen dataclasses, and the occasional dict/set; anything else must
    have a deterministic ``repr``.
    """
    h = hashlib.blake2b(digest_size=16)
    _feed_fingerprint(h, value)
    return h.hexdigest()


def configuration_fingerprint(config: Configuration) -> str:
    """Stable fingerprint of a :class:`Configuration` (see :func:`stable_fingerprint`)."""
    return stable_fingerprint(config)
