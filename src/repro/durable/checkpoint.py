"""Sealed, fsync'd, atomically replaced blobs: the checkpoint discipline.

A *sealed* blob is ``MAGIC + blake2b-128(payload) + payload``.  The digest
turns silent corruption (a flipped bit on disk, a torn tail that still
parses as a pickle) into a detected miss: an unsealed read either returns
the exact bytes that were written or returns nothing — never plausible
garbage.  This is what lets every durable loader promise "wrong verdicts
are impossible, only lost work".

Writes follow the full power-loss protocol, not just the process-crash
one:

1. write the sealed blob to a temp file **in the destination directory**
   (same filesystem, so the final rename is atomic);
2. ``fsync`` the temp file — the payload is on the platter, not merely in
   the page cache;
3. ``os.replace`` onto the destination — readers see old-or-new, never a
   partial file;
4. ``fsync`` the directory — the *rename itself* survives power loss
   (without this, a crash can resurrect the old directory entry).

:class:`CheckpointStore` wraps the protocol for one pickled object with
quarantine-on-corruption (see :mod:`repro.durable.recovery`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.durable.recovery import QUARANTINE_DIR, quarantine_file

#: Leading bytes of every sealed blob; versioned so format changes are
#: detected as corruption (quarantine), never misread.
SEAL_MAGIC = b"REPROSEAL\x01"

#: blake2b digest width used throughout the durable layer.
DIGEST_SIZE = 16


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


def seal(payload: bytes) -> bytes:
    """Frame *payload* as a self-verifying blob."""
    return SEAL_MAGIC + _digest(payload) + payload


def unseal(blob: bytes) -> Optional[bytes]:
    """Recover the payload of a sealed blob, or ``None`` if unverifiable."""
    header = len(SEAL_MAGIC) + DIGEST_SIZE
    if len(blob) < header or not blob.startswith(SEAL_MAGIC):
        return None
    digest = blob[len(SEAL_MAGIC):header]
    payload = blob[header:]
    if _digest(payload) != digest:
        return None
    return payload


def as_path(path) -> Path:
    """*path* as a :class:`~pathlib.Path`, without re-parsing one that is."""
    return path if isinstance(path, Path) else Path(path)


def fsync_dir(directory: Path) -> None:
    """fsync a directory so renames within it survive power loss.

    Best-effort: platforms/filesystems that cannot open a directory for
    reading (or reject fsync on one) degrade to process-crash durability.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_sealed(path: Path, payload: bytes) -> Path:
    """Write ``seal(payload)`` to *path* with the full durability protocol."""
    path = as_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(seal(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def read_sealed(path: Path) -> Optional[bytes]:
    """Read and verify a sealed blob; ``None`` on any failure.  Never raises."""
    try:
        blob = as_path(path).read_bytes()
    except OSError:
        return None
    return unseal(blob)


class CheckpointStore:
    """One pickled object, stored sealed, loaded with quarantine.

    ``save`` is atomic and power-loss durable; ``load`` returns
    ``(obj, problem)`` where ``problem`` is ``None`` on success,
    ``"missing"`` when no checkpoint exists, or ``"corrupt"`` when the
    file failed verification or unpickling — in which case it has been
    moved to the quarantine directory (best-effort) rather than deleted.
    """

    def __init__(self, path: Path, quarantine_dir: str | Path | None = None) -> None:
        self.path = as_path(path)
        self._quarantine_dir = quarantine_dir
        #: Payload size of the last successful :meth:`load` (0 otherwise).
        self.loaded_bytes = 0

    @property
    def quarantine_dir(self) -> Path:
        """Where unreadable checkpoints go (built on use, off the load path)."""
        if self._quarantine_dir is None:
            return self.path.parent / QUARANTINE_DIR
        return as_path(self._quarantine_dir)

    def save(self, obj: Any) -> None:
        """Pickle *obj* and write it sealed (atomic, power-loss durable)."""
        write_sealed(
            self.path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def load(self) -> Tuple[Optional[Any], Optional[str]]:
        """Return ``(obj, None)``, or ``(None, "missing"/"corrupt")``."""
        self.loaded_bytes = 0
        try:
            payload = unseal(self.path.read_bytes())
        except FileNotFoundError:
            return None, "missing"
        except OSError:
            payload = None
        if payload is None:
            quarantine_file(self.path, self.quarantine_dir)
            return None, "corrupt"
        try:
            obj = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — any unpickling failure is corruption
            quarantine_file(self.path, self.quarantine_dir)
            return None, "corrupt"
        self.loaded_bytes = len(payload)
        return obj, None
