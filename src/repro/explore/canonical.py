"""Symmetry reduction: quotient exploration by process-identity orbits.

Anonymous algorithms (paper §5, §6) run identical code with no process
identifiers, so two configurations that differ only by a permutation of
process-local states are *behaviourally equivalent*: every execution from
one maps, step by step, onto an execution from the other.  Exploring both
is pure duplication.  This module computes a canonical representative of
each orbit so the engine's visited set can deduplicate them.

Soundness (the full argument lives in ``docs/explorer.md``):

* Let π be a permutation of process ids that preserves workloads
  (``workloads[π(p)] == workloads[p]`` for every p).  For an anonymous
  automaton over a purely primitive memory layout, the step function
  commutes with π: ``step(π·C, π(p)) = π·step(C, p)``, because no callback
  may consult the process id (:class:`~repro.runtime.automaton.Context`
  raises :class:`~repro.errors.AnonymityViolation` on identifier access)
  and shared memory is untouched by π.
* Both exploration oracles are orbit-invariant: Validity and k-Agreement
  look at the *multiset* of outputs per instance, and the progress-closure
  oracle quantifies over **all** survivor sets of size ≤ m, a family closed
  under π.  Hence checking one representative per orbit checks them all.

Canonicalization is therefore gated hard: it applies only when the
automaton declares ``anonymous = True``, workloads are static, and every
object binding is primitive (register-level implementations such as the
SWMR substrate key register indices by process id, which breaks the
commutation above).  :func:`symmetry_classes` returns ``None`` whenever
the gate fails, and callers must then explore the full graph.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.memory.layout import PrimitiveBinding
from repro.runtime.system import Configuration, System, stable_fingerprint

#: Orbit-defining partition: groups of pids free to permute among themselves.
SymmetryClasses = Tuple[Tuple[int, ...], ...]


def symmetry_classes(system: System) -> Optional[SymmetryClasses]:
    """The workload-preserving symmetry classes of *system*, or ``None``.

    Returns the partition of process ids into groups with identical full
    workloads — the permutations that fix this partition are exactly the
    symmetries the canonicalization may quotient by.  Returns ``None`` when
    the system has no usable symmetry: a non-anonymous automaton, dynamic
    workloads, a layout with implemented (non-primitive) objects, or a
    partition that is all singletons.
    """
    if not system.automaton.anonymous:
        return None
    if system.workloads is None:
        return None
    for name in system.layout.object_names:
        if not isinstance(system.layout.binding(name), PrimitiveBinding):
            return None
    groups: dict[Tuple, list] = {}
    for pid, workload in enumerate(system.workloads):
        groups.setdefault(workload, []).append(pid)
    classes = tuple(
        tuple(pids) for _, pids in sorted(groups.items(), key=lambda kv: kv[1][0])
        if len(pids) > 1
    )
    return classes or None


def canonicalize(
    config: Configuration,
    classes: SymmetryClasses,
    *,
    key: Callable[..., "str | bytes"] = stable_fingerprint,
) -> Configuration:
    """The canonical representative of *config*'s symmetry orbit.

    Within each class, process records are sorted by *key* (their stable
    fingerprint by default); positions outside every class are left
    untouched.  The result is reachable-equivalent to *config* (same
    orbit) and identical for every member of the orbit, so it can key a
    visited set.

    ``key`` may be any injective, deterministic total order on process
    records: which orbit member represents the orbit affects no
    exploration result (verdicts, counts, footprints, and schedules are
    all orbit-invariant), only the opaque key bytes.  What *does* matter
    is that every party sharing a fingerprint namespace uses the same
    key — the engine's :func:`repro.explore.packed.config_fingerprint`
    therefore sorts with
    :meth:`repro.explore.packed.PackedCodec.proc_frag` (memoized, and
    reused verbatim when the representative is encoded), while direct
    callers of this function keep the definitional
    ``stable_fingerprint`` order.

    Idempotent: ``canonicalize(canonicalize(c, g), g) == canonicalize(c, g)``.
    """
    procs = list(config.procs)
    for pids in classes:
        records = sorted((procs[pid] for pid in pids), key=key)
        for pid, record in zip(pids, records):
            procs[pid] = record
    return Configuration(procs=tuple(procs), memory=config.memory)
