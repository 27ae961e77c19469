"""Shared retry/backoff policy for every self-healing loop in the repo.

Two kinds of loop retry failed work under exponentially growing
patience: the fault campaign grows the *step budget* of inconclusive
trials, and the supervised worker pool (:mod:`repro.durable.pool`,
behind both explore and serve) sleeps between rebuilds.  Before this module each carried its own copy of
the arithmetic (``budget * backoff**attempt`` in one place,
``min(0.05 * 2**attempt, 2.0)`` in another); :class:`BackoffPolicy` is
the single definition, with optional *seeded* jitter so that a fleet of
workers retrying the same incident fans out in time without giving up
reproducibility — the jitter for attempt ``i`` under seed ``s`` is a
pure function of ``(s, i)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["BackoffPolicy", "DEFAULT_REBUILD_POLICY"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with a cap and optional deterministic jitter.

    ``max_retries`` counts *retries*, so a loop over :meth:`attempts`
    runs the work at most ``max_retries + 1`` times.  ``delay(attempt)``
    is ``min(base_delay * factor**attempt, max_delay)``, scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1 + jitter]``
    using a PRNG seeded by ``(seed, attempt)`` — deterministic per
    attempt, independent across attempts.  ``jitter=0`` (the default)
    reproduces the historical fixed schedule exactly.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def attempts(self) -> Iterator[int]:
        """Attempt indices ``0 .. max_retries`` inclusive."""
        return iter(range(self.max_retries + 1))

    def delay(self, attempt: int) -> float:
        """Seconds to wait before re-running attempt number *attempt*."""
        base = min(self.base_delay * self.factor**attempt, self.max_delay)
        if self.jitter == 0.0:
            return base
        # str seeds hash via sha512 in CPython — stable across processes,
        # unlike tuple seeds (rejected) or hash() (per-process salted).
        rng = random.Random(f"{self.seed}:{attempt}")
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def sleep(self, attempt: int) -> float:
        """Sleep for :meth:`delay`; returns the seconds actually slept."""
        pause = self.delay(attempt)
        if pause > 0.0:
            time.sleep(pause)
        return pause

    def scaled_budget(self, initial: int, attempt: int) -> int:
        """Exponentially grown work budget for *attempt* (no cap).

        This is the fault campaign's retry ladder: attempt 0 runs under
        ``initial`` steps, attempt ``i`` under ``initial * factor**i``.
        """
        return int(initial * self.factor**attempt)


#: The exploration engine's historical pool-rebuild schedule
#: (50 ms, 100 ms, 200 ms, ... capped at 2 s), kept as the shared
#: default for infrastructure rebuild loops.
DEFAULT_REBUILD_POLICY = BackoffPolicy(
    max_retries=3, base_delay=0.05, factor=2.0, max_delay=2.0,
)
