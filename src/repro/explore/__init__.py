"""Exhaustive state-space exploration for small instances.

Safety of set agreement must hold in *every* execution.  For small systems
the execution space, quotiented by configuration equality, is finite enough
to enumerate outright; this package does so, producing either a proof of
safety over the explored space or a concrete counterexample schedule.

It is also the engine behind the §7-conjecture probe (benchmark E9) and the
cross-validation of the Theorem 2 covering construction: both ask "does an
under-provisioned algorithm have *any* unsafe execution?", which exploration
answers definitively on tiny instances.

The package splits three ways (see ``docs/explorer.md`` for the operator's
guide):

* :mod:`repro.explore.checker` — the oracles and the public API
  (:func:`explore_safety`, :func:`explore_progress_closure`);
* :mod:`repro.explore.frontier` — the engine: batched deterministic BFS,
  a shared-nothing ``multiprocessing`` worker pool, structured failure
  propagation;
* :mod:`repro.explore.canonical` — symmetry reduction for anonymous
  protocols (visited-set quotient by process-identity orbits);
* :mod:`repro.explore.packed` — the packed configuration codec and the
  frontier carrier: canonical byte encodings key the visited set, and
  the worker pool ships interned byte fragments instead of pickled
  dataclass graphs (see ``docs/performance.md``);
* :mod:`repro.explore.cache` — the run key that names an exploration's
  run journal (``.repro-cache/<key>.journal/``), through which truncated
  runs resume and finished runs return instantly.
"""

from repro.explore.canonical import canonicalize, symmetry_classes
from repro.explore.checker import (
    ExplorationResult,
    ProgressCounterexample,
    SafetyCounterexample,
    explore_progress_closure,
    explore_safety,
)
from repro.explore.frontier import EngineFailure
from repro.explore.packed import (
    PackedCodec,
    PackedCodecError,
    PackedState,
    config_fingerprint,
    packed_fingerprint,
)

__all__ = [
    "EngineFailure",
    "ExplorationResult",
    "PackedCodec",
    "PackedCodecError",
    "PackedState",
    "ProgressCounterexample",
    "SafetyCounterexample",
    "canonicalize",
    "config_fingerprint",
    "explore_progress_closure",
    "explore_safety",
    "packed_fingerprint",
    "symmetry_classes",
]
