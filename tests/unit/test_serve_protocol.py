"""Unit tests for the serve wire vocabulary (jobs, keys, fingerprints)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    VerifyJob,
    canonical_json,
    verdict_fingerprint,
)


class TestCanonicalJson:
    def test_sorted_tight_ascii(self):
        blob = canonical_json({"b": 1, "a": [True, None, "x"]})
        assert blob == b'{"a":[true,null,"x"],"b":1}'

    def test_key_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )


class TestVerifyJob:
    def test_wire_round_trip(self):
        job = VerifyJob(mode="faults", n=4, fault_family="corruption",
                        trials=9, seed=5)
        again = VerifyJob.from_wire(job.descriptor())
        assert again == job
        assert again.key == job.key

    def test_key_is_stable_across_processes(self):
        """The job key is a pure function of the descriptor bytes — pin
        one value so accidental key-schema drift (which would orphan
        every memoized verdict) fails loudly."""
        job = VerifyJob()  # all defaults
        assert job.key == VerifyJob.from_wire({}).key
        blob = canonical_json(job.descriptor())
        import hashlib

        assert job.key == hashlib.blake2b(blob, digest_size=16).hexdigest()

    def test_every_field_participates_in_the_key(self):
        base = VerifyJob()
        seen = {base.key}
        variants = [
            VerifyJob(n=4), VerifyJob(m=2, n=4), VerifyJob(k=2, n=4),
            VerifyJob(protocol="repeated"), VerifyJob(mode="run"),
            VerifyJob(max_configs=99),
            VerifyJob(reduction="local-first"),
            VerifyJob(canonicalize=True), VerifyJob(scheduler="random"),
            VerifyJob(seed=2), VerifyJob(max_steps=7),
            VerifyJob(fault_family="corruption"), VerifyJob(trials=2),
            VerifyJob(budget=3),
        ]
        for variant in variants:
            assert variant.key not in seen, variant
            seen.add(variant.key)

    def test_version_participates_in_the_key(self):
        descriptor = VerifyJob().descriptor()
        assert descriptor["version"] == PROTOCOL_VERSION
        assert b'"version"' in canonical_json(descriptor)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job field"):
            VerifyJob.from_wire({"n": 3, "max_confgs": 10})

    def test_version_skew_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            VerifyJob.from_wire({"version": PROTOCOL_VERSION + 1})

    def test_v1_jobs_are_refused(self):
        """v1 keyed the retired ``backend`` field; its keys are not v2's."""
        assert PROTOCOL_VERSION == 2
        with pytest.raises(ConfigurationError, match="version"):
            VerifyJob.from_wire({"version": 1, "backend": "reference"})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            VerifyJob.from_wire([1, 2, 3])

    @pytest.mark.parametrize("field,value", [
        ("protocol", "nope"), ("mode", "nope"), ("backend", "nope"),
        ("scheduler", "nope"), ("fault_family", "nope"),
        ("reduction", "nope"), ("n", 0), ("k", -1), ("trials", 0),
        ("seed", "one"), ("max_configs", 1.5),
        # bool is an int subclass; accepting it would alias job keys
        ("n", True), ("m", True), ("k", True), ("seed", True),
        ("max_configs", True), ("trials", True), ("budget", True),
        ("max_steps", True),
        ("canonicalize", "yes"), ("canonicalize", 1), ("canonicalize", None),
        # unknown since protocol v2 (one frontier carrier)
        ("backend", "packed"),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            VerifyJob.from_wire({field: value})

    def test_m_cannot_exceed_n(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            VerifyJob.from_wire({"n": 2, "m": 3})

    def test_describe_names_mode_and_key(self):
        job = VerifyJob(mode="run", n=5)
        assert "run[" in job.describe()
        assert job.key[:12] in job.describe()


class TestVerdictFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = verdict_fingerprint({"outcome": "ok", "data": {"x": 1}})
        b = verdict_fingerprint({"data": {"x": 1}, "outcome": "ok"})
        assert a == b
        assert len(a) == 32  # hex blake2b-128

    def test_sensitive_to_content(self):
        a = verdict_fingerprint({"outcome": "ok"})
        b = verdict_fingerprint({"outcome": "refuted"})
        assert a != b

    def test_json_round_trip_preserves_fingerprint(self):
        """Payloads survive a JSON round trip (the wire) unchanged."""
        payload = {"outcome": "ok", "data": {"steps": 12, "flags": [1, 2]}}
        again = json.loads(json.dumps(payload))
        assert verdict_fingerprint(payload) == verdict_fingerprint(again)
