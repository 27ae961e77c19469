"""The run key: what identifies one exploration on disk.

Exploration over the same ``(protocol, n, m, k, workload, layout, oracle)``
is deterministic, so its state can be persisted and reused.  The one
store is the durable run journal (:class:`repro.durable.journal.RunJournal`,
under ``.repro-cache/<key>.journal/`` for ``repro explore --resume``): a
finished checkpoint answers a re-ask without exploring, and an unfinished
one resumes.  This module only names the run.  :func:`exploration_key` is
a :func:`~repro.runtime.system.stable_fingerprint` over everything that
determines the run's semantics: the automaton class and parameters, the
workloads, the memory-layout shape, the oracle and its knobs, the
reduction, and whether canonicalization was in effect.  The exploration
*budget* (``max_configs``) is deliberately **not** part of the key: a rerun
with a larger budget picks up the saved frontier and keeps going, which is
the whole point of ``--resume``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.memory.layout import ImplementedBinding, MemoryLayout, PrimitiveBinding
from repro.runtime.system import System, stable_fingerprint

#: The run-key namespace, bumped whenever the persisted run state changes
#: shape: every run then gets a new key, so old state reads as a miss.
# v2: ExplorationResult grew worker_retries/degraded (self-healing history).
# v3: entries are digest-sealed on disk (durable.checkpoint framing) and
# ExplorationResult grew interrupted/recovery (watchdog + journal);
# pre-seal files fail verification and are quarantined, not misread.
# v4: entries and ExplorationResult carry the register footprint
# (memory_steps / write_steps / registers_written), so resumed runs
# report the same footprint as uninterrupted ones.
# v5: fingerprints are blake2b digests of the packed canonical encoding
# (see repro.explore.packed) and unfinished frontiers are stored as
# (fingerprint, packed bytes) pairs instead of pickled Configuration
# graphs, which makes entries smaller.
CACHE_VERSION = 5

def _layout_signature(layout: MemoryLayout) -> Tuple:
    """A structural digest of a layout: banks, bindings, implementations."""
    banks = tuple(
        (bank.name, bank.size, stable_fingerprint(bank.initial))
        for bank in layout.banks
    )
    objects = []
    for name in sorted(layout.object_names):
        binding = layout.binding(name)
        if isinstance(binding, PrimitiveBinding):
            objects.append((name, "primitive", binding.kind, binding.bank))
        elif isinstance(binding, ImplementedBinding):
            objects.append(
                (name, "implemented", binding.impl.name,
                 stable_fingerprint(binding.impl.params), binding.banks)
            )
        else:  # pragma: no cover — layouts validate bindings at build time
            objects.append((name, "unknown", repr(binding)))
    return (banks, tuple(objects))


def system_signature(system: System) -> Tuple:
    """What identifies *system* in a run key: automaton, n, workloads, layout.

    Shared by :func:`exploration_key` and
    :func:`repro.faults.campaign.campaign_key`, which splice it into their
    descriptors after their own kind/version/oracle prefix.
    """
    automaton = system.automaton
    return (
        type(automaton).__qualname__, automaton.name,
        stable_fingerprint(dict(automaton.params)),
        system.n, system.workloads,
        _layout_signature(system.layout),
    )


def exploration_key(
    system: System,
    *,
    oracle: str,
    k: Optional[int],
    survivor_sets: Tuple[Tuple[int, ...], ...],
    solo_budget: int,
    reduction: str,
    canonicalized: bool,
    stop_at_first: bool,
) -> str:
    """The run key: a stable fingerprint of the run's full semantics."""
    descriptor = (
        "repro-explore", CACHE_VERSION, oracle, *system_signature(system),
        k, survivor_sets, solo_budget, reduction, canonicalized, stop_at_first,
    )
    return stable_fingerprint(descriptor)
