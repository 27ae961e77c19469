"""Persistent exploration cache: resume runs instead of restarting them.

Exploration over the same ``(protocol, n, m, k, workload, layout, oracle)``
is deterministic, so its outcome — or, for budget-truncated runs, its
visited set and pending frontier — can be persisted and reused.  The cache
lives under ``.repro-cache/`` (one pickle per run key) and is keyed by a
:func:`~repro.runtime.system.stable_fingerprint` over everything that
determines the run's semantics: the automaton class and parameters, the
workloads, the memory-layout shape, the oracle and its knobs, the
reduction, and whether canonicalization was in effect.  The exploration
*budget* (``max_configs``) is deliberately **not** part of the key: a rerun
with a larger budget picks up the saved frontier and keeps going, which is
the whole point of ``--resume``.

Entries are written with the full durability protocol of
:mod:`repro.durable.checkpoint` — digest-sealed, fsync'd temp file,
atomic ``os.replace``, directory fsync — so a saved entry survives power
loss, not merely process death, and a flipped bit on disk reads as a
verifiable miss rather than plausible garbage.  Any unreadable or
version-skewed entry is *quarantined* (moved under
``<cache-dir>/quarantine/``, surfaced as a one-line warning) instead of
being silently re-hit every run.  The cache can only ever save work,
never change a verdict, because resumed state is the exact coordinator
state the interrupted run would have carried forward.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.durable.checkpoint import read_sealed, write_sealed
from repro.durable.recovery import QUARANTINE_DIR, quarantine_file
from repro.memory.layout import ImplementedBinding, MemoryLayout, PrimitiveBinding
from repro.runtime.system import System, stable_fingerprint

#: Bumped whenever the pickled entry layout changes; skew reads as a miss.
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

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass
class CacheEntry:
    """One persisted exploration: either a finished result or a frontier.

    ``finished`` entries carry the final
    :class:`~repro.explore.checker.ExplorationResult`; unfinished
    (budget-truncated) entries instead carry the coordinator state needed
    to continue — the parent map and the pending frontier.
    """

    version: int
    key: str
    finished: bool
    result: Optional[object]
    parents: Optional[Dict[str, Tuple[Optional[str], Optional[int]]]]
    #: Pending ``(fingerprint, packed bytes)`` pairs (see
    #: :mod:`repro.explore.packed`).
    frontier: Optional[List[Tuple[str, bytes]]]
    explored: int
    #: Register footprint carried across resumes (sorted for stable bytes).
    memory_steps: int = 0
    write_steps: int = 0
    registers_written: Tuple = ()


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
    """The cache key: a stable fingerprint of the run's full semantics."""
    descriptor = (
        "repro-explore", CACHE_VERSION, oracle, *system_signature(system),
        k, survivor_sets, solo_budget, reduction, canonicalized, stop_at_first,
    )
    return stable_fingerprint(descriptor)


def entry_path(cache_dir: str, key: str) -> Path:
    """Filesystem location of the entry for *key* under *cache_dir*."""
    return Path(cache_dir) / f"{key}.pkl"


def _quarantine_entry(cache_dir: str, path: Path, reason: str) -> None:
    """Move a bad entry aside and say so once, with a count.  Never raises."""
    moved = quarantine_file(path, Path(cache_dir) / QUARANTINE_DIR)
    where = moved if moved is not None else path
    warnings.warn(
        f"repro-cache: quarantined 1 unreadable entry ({reason}): {where}",
        RuntimeWarning,
        stacklevel=3,
    )


def load_entry(cache_dir: str, key: str) -> Optional[CacheEntry]:
    """Load the entry for *key*, or ``None`` on miss/corruption/skew.

    Corrupt, truncated, or version-skewed entries are moved to
    ``<cache_dir>/quarantine/`` (with a one-line warning) rather than
    left in place to be re-hit — and the digest seal guarantees that a
    damaged entry can only ever read as a miss, never as a wrong verdict.
    """
    path = entry_path(cache_dir, key)
    if not path.exists():
        return None
    payload = read_sealed(path)
    if payload is None:
        _quarantine_entry(cache_dir, path, "failed digest verification")
        return None
    try:
        entry = pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, TypeError, ValueError):
        _quarantine_entry(cache_dir, path, "unpicklable payload")
        return None
    if not isinstance(entry, CacheEntry) or entry.version != CACHE_VERSION:
        _quarantine_entry(cache_dir, path, "version skew")
        return None
    if entry.key != key:
        _quarantine_entry(cache_dir, path, "key mismatch")
        return None
    return entry


def save_entry(cache_dir: str, key: str, entry: CacheEntry) -> Path:
    """Durably persist *entry*; returns the final path.

    Sealed and written through :func:`repro.durable.checkpoint.write_sealed`:
    the temp file is fsync'd before the atomic replace and the directory
    fsync'd after it, so the entry survives power loss — the pre-v3
    behavior only survived process crashes.
    """
    path = entry_path(cache_dir, key)
    return write_sealed(
        path, pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    )
