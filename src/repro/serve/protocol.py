"""The serve wire vocabulary: jobs, keys, verdicts, and their encodings.

Everything the daemon stores or transmits is canonical JSON — UTF-8,
sorted keys, no whitespace — so byte identity and semantic identity
coincide.  A job's *key* is the packed fingerprint
(:func:`~repro.explore.packed.packed_fingerprint`, hex blake2b-128) of
its canonical bytes; a verdict's *fingerprint* is the same digest over
the verdict's deterministic payload.  Two runs of the same job — on
different workers, or across a daemon kill and restart —
yield byte-identical verdict payloads, hence identical fingerprints
(asserted by the kill-and-resume integration test).

The wire protocol is one JSON object per line, both directions.
Requests carry an ``op``:

* ``{"op": "verify", "job": {...}}`` — submit a job; blocks until the
  verdict is ready (or ``"wait": false`` to get the queue ticket back
  immediately and poll with ``result``);
* ``{"op": "result", "key": "..."}`` — fetch a memoized verdict;
* ``{"op": "status"}`` — daemon health: queue depth, counters, uptime;
* ``{"op": "shutdown"}`` — graceful stop (drains in-flight work).

Responses always carry ``ok`` (bool); rejections carry ``error`` and —
for backpressure specifically — ``retry_after`` (seconds), the explicit
alternative to unbounded buffering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.explore.packed import packed_fingerprint

#: Version stamped into every canonical job encoding: bumping it is how
#: a semantic change to job execution invalidates every memoized verdict.
#: v2: the ``backend`` field is gone (one frontier carrier), so job keys
#: changed; v1 journals must be drained before upgrading.
PROTOCOL_VERSION = 2

#: Job modes and the subsystems they dispatch to (see
#: :func:`repro.serve.supervisor.execute_job`).
MODES = ("explore", "run", "faults")

#: Protocol families a job may name (mirrors the CLI's registry).
FAMILIES = ("oneshot", "repeated", "anonymous", "anonymous-oneshot")

SCHEDULERS = ("round-robin", "random", "writer-priority", "bounded")

FAULT_FAMILIES = ("crashes", "corruption")


def canonical_json(obj: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, tight separators, UTF-8."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def verdict_fingerprint(payload: Dict[str, Any]) -> str:
    """Hex blake2b-128 of a verdict's deterministic payload."""
    return packed_fingerprint(canonical_json(payload))


@dataclass(frozen=True)
class VerifyJob:
    """One verification request, with a canonical identity.

    ``mode`` selects the subsystem: ``"explore"`` exhaustively
    model-checks safety (the default), ``"run"`` executes one schedule
    under a named adversary and checks the resulting execution,
    ``"faults"`` runs a seeded chaos campaign.  Every field participates
    in the job key — two jobs with equal keys are the same deterministic
    computation, which is what makes memoizing verdicts sound.
    """

    protocol: str = "oneshot"
    n: int = 3
    m: int = 1
    k: int = 1
    mode: str = "explore"
    # explore-mode knobs
    max_configs: int = 50_000
    reduction: str = "none"
    canonicalize: bool = False
    # run-mode knobs
    scheduler: str = "bounded"
    seed: int = 1
    max_steps: int = 20_000
    # faults-mode knobs
    fault_family: str = "crashes"
    trials: int = 6
    budget: int = 20_000

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on a bad job."""
        if self.protocol not in FAMILIES:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{FAMILIES}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULERS}"
            )
        if self.fault_family not in FAULT_FAMILIES:
            raise ConfigurationError(
                f"unknown fault family {self.fault_family!r}; expected one "
                f"of {FAULT_FAMILIES}"
            )
        if self.reduction not in ("none", "local-first"):
            raise ConfigurationError(
                f"unknown reduction {self.reduction!r}"
            )
        # ``type(...) is int`` refuses bools (an ``int`` subclass): ``true``
        # and ``1`` would key the same computation twice.
        for name in ("n", "m", "k", "max_configs", "max_steps", "trials",
                     "budget"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigurationError(
                    f"job field {name} must be a positive integer, "
                    f"got {value!r}"
                )
        if type(self.seed) is not int:
            raise ConfigurationError(f"seed must be an integer, got "
                                     f"{self.seed!r}")
        if not isinstance(self.canonicalize, bool):
            raise ConfigurationError(f"canonicalize must be a boolean, got "
                                     f"{self.canonicalize!r}")
        if self.m > self.n:
            raise ConfigurationError(f"m={self.m} exceeds n={self.n}")

    def descriptor(self) -> Dict[str, Any]:
        """The job as a primitive dict, version-stamped — the wire form."""
        body: Dict[str, Any] = {"version": PROTOCOL_VERSION}
        for f in fields(self):
            body[f.name] = getattr(self, f.name)
        return body

    def canonical_bytes(self) -> bytes:
        """Canonical-JSON encoding of the descriptor (the keying bytes)."""
        return canonical_json(self.descriptor())

    @property
    def key(self) -> str:
        """Content address of this job: hex blake2b-128 of its canonical
        bytes.  Keys name journal tickets, store entries, and cache hits."""
        return packed_fingerprint(self.canonical_bytes())

    def describe(self) -> str:
        """One human line, for logs and the status endpoint."""
        return (
            f"{self.mode}[{self.protocol} n={self.n} m={self.m} "
            f"k={self.k}] {self.key[:12]}"
        )

    @classmethod
    def from_wire(cls, obj: Any) -> "VerifyJob":
        """Decode and validate a wire-form job dict.

        Unknown fields are rejected rather than ignored: a typo'd knob
        silently dropped would memoize a verdict under the wrong key.
        """
        if not isinstance(obj, dict):
            raise ConfigurationError(
                f"job must be a JSON object, got {type(obj).__name__}"
            )
        body = dict(obj)
        version = body.pop("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"unsupported job version {version!r} "
                f"(this daemon speaks {PROTOCOL_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(body) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job field(s): {', '.join(unknown)}"
            )
        job = cls(**body)
        job.validate()
        return job
