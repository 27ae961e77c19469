"""Frames: executing object operations as sequences of register steps.

The paper's algorithms are written against snapshot objects, but all of its
space bounds count *registers*.  The bridge is a register-level *object
implementation*: a deterministic state machine that, given one high-level
operation (say ``scan()``), performs a sequence of atomic register accesses
and eventually returns the operation's response.

When a :class:`~repro.memory.layout.MemoryLayout` binds an object to an
:class:`ObjectImplementation`, the runtime opens a *frame* for each
high-level operation issued against it and advances the frame one register
access per process step.  The algorithm above is oblivious: it sees only the
final response.  This yields the correct step granularity — a scan that is
implemented from registers is interruptible between register reads, exactly
the regime in which the non-blocking anonymous snapshot of [7] can starve
(and which the paper's Figure 5 handles with its second thread).

Implementations may keep *persistent* per-process state across operations
(e.g. sequence numbers in the Afek-et-al. snapshot); the runtime threads it
through :class:`Return`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Tuple, Union

from repro._types import Params, Value
from repro.memory.layout import BankSpec
from repro.memory.ops import Op


@dataclass(frozen=True, slots=True)
class ImplContext:
    """Context for an object implementation: which process, which banks.

    ``banks`` are the names of the register banks the implementation owns
    (in the order it declared them); all its operations must target those.
    """

    pid: int
    n: int
    params: Params
    banks: Tuple[str, ...]
    anonymous: bool = False


@dataclass(frozen=True, slots=True)
class Return:
    """Terminal action of a frame: the operation's response.

    ``persistent`` is the implementation's new cross-operation state for
    this process.
    """

    response: Value
    persistent: Any


FrameAction = Union[Op, Return]


class ObjectImplementation(ABC):
    """Register-level implementation of a shared object.

    Subclasses declare the register banks they need (:meth:`bank_specs`) and
    implement a state machine with the same pending/apply discipline as
    protocol automata.  Frame states must be immutable and hashable.
    """

    #: human-readable implementation name
    name: str = "object-impl"

    def __init__(self, params: Params) -> None:
        self.params = params

    @abstractmethod
    def bank_specs(self, prefix: str) -> Tuple[BankSpec, ...]:
        """Banks this implementation needs, with names under *prefix*."""

    def initial_persistent(self, ictx: ImplContext) -> Any:
        """Cross-operation per-process state; default: none."""
        return None

    @abstractmethod
    def begin(self, ictx: ImplContext, persistent: Any, op: Op) -> Any:
        """Open a frame for high-level operation *op*; return frame state."""

    @abstractmethod
    def pending(self, ictx: ImplContext, state: Any) -> FrameAction:
        """The frame's next register access, or :class:`Return`."""

    @abstractmethod
    def apply(self, ictx: ImplContext, state: Any, response: Value) -> Any:
        """Frame transition on the response of its pending register access."""


@dataclass(frozen=True, slots=True)
class Frame:
    """A live frame: the object being operated on and the impl's state.

    Part of the packed codec's fixed skeleton
    (:mod:`repro.explore.packed` assigns it a one-byte class index), so
    adding, removing, or reordering fields is a serialization format
    change: bump the run-key namespace
    :data:`repro.explore.cache.CACHE_VERSION` alongside.
    """

    obj: str
    state: Any
