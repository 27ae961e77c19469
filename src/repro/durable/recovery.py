"""Recovery accounting: what a crashed run left behind, and what survived.

Every durable component (the run journal and its checkpoint store, the
serve verdict store) follows the same salvage discipline on startup:

* anything **verifiable** (magic intact, blake2b digest matches) is used;
* the first **torn or corrupt** region of a journal truncates the valid
  prefix — everything before it is trusted, everything after discarded;
* anything **unreadable wholesale** (bad header, failed digest, garbage
  pickle) is moved — never deleted — to a ``quarantine/`` directory, so a
  forensic copy survives and the bad file cannot be re-hit on every run.

The :class:`RecoveryReport` is the receipt: it records what was salvaged
and what was lost so a resumed run can state, in one line, exactly how
much work the preemption cost.  Loading and salvaging **never raise** —
a recovery path that can itself crash is no recovery path at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

#: Subdirectory (under a journal root) receiving unreadable files.
QUARANTINE_DIR = "quarantine"


@dataclass
class RecoveryReport:
    """What one recovery scan salvaged from a run's durable state.

    ``records_recovered`` counts journal records replayed on top of the
    checkpoint; ``records_stale`` counts pre-compaction leftovers that the
    checkpoint already covers (skipped, harmless); ``bytes_discarded``
    measures the torn/corrupt journal suffix that was truncated away.
    ``quarantined`` lists files moved aside wholesale.
    ``checkpoint_finished`` marks a checkpoint of a run that had already
    finished: the caller answers from it without running anything.
    """

    run: str
    checkpoint_loaded: bool = False
    checkpoint_finished: bool = False
    records_recovered: int = 0
    records_stale: int = 0
    bytes_discarded: int = 0
    quarantined: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def salvaged_anything(self) -> bool:
        """True iff the scan found any prior state (even quarantined)."""
        return (
            self.checkpoint_loaded
            or self.records_recovered > 0
            or self.records_stale > 0
            or self.bytes_discarded > 0
            or bool(self.quarantined)
        )

    def describe(self) -> str:
        """One line: what survived the preemption and what it cost."""
        if not self.salvaged_anything:
            return f"recovery [{self.run}]: fresh run, nothing to salvage"
        parts = []
        if self.checkpoint_finished:
            parts.append("finished checkpoint")
        elif self.checkpoint_loaded:
            parts.append("checkpoint")
        parts.append(f"{self.records_recovered} journal records")
        if self.records_stale:
            parts.append(f"{self.records_stale} stale (pre-compaction) skipped")
        if self.bytes_discarded:
            parts.append(f"{self.bytes_discarded} torn bytes truncated")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} files quarantined")
        return f"recovery [{self.run}]: salvaged " + ", ".join(parts)


def quarantine_file(path: Path, quarantine_dir: Path) -> Optional[Path]:
    """Move *path* under *quarantine_dir*; return the new path, or ``None``.

    Collisions get a numeric suffix.  Never raises — if the move itself
    fails (cross-device, permissions, the file vanished) the original is
    left in place and ``None`` is returned; quarantine is best-effort
    forensics, not a correctness dependency.
    """
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = quarantine_dir / path.name
        attempt = 0
        while target.exists():
            attempt += 1
            target = quarantine_dir / f"{path.name}.{attempt}"
        os.replace(path, target)
        return target
    except OSError:
        return None
