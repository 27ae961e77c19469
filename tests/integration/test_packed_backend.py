"""Verdict identity of the packed frontier carrier, pinned.

Every exploration carries :class:`~repro.explore.packed.PackedState`
values through its frontier, worker pool, cache and journal.  These
tests pin the verdicts that carrier must produce where it could
plausibly break (see ``docs/performance.md``): each expected value is
``verdict_fingerprint(result.identity_record())`` of the same run on the
dataclass-carrier engine this one replaced, so a change to what the
engine computes fails here even though no second carrier is left to
compare against.

* **Verdicts** — safety, canonicalized, progress-closure, refuted
  witness, and ``workers=2``.
* **Resume** — cache truncation and journal interrupts finish on the
  uninterrupted verdict.
* **No selection knob** — ``--backend`` and ``backend=`` are gone.
* **Telemetry** — golden streams with the always-on packed counters.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import OneShotSetAgreement, System, telemetry
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.cli import main
from repro.durable.watchdog import DEADLINE_REASON, Watchdog
from repro.explore import explore_progress_closure, explore_safety
from repro.serve.protocol import verdict_fingerprint
from repro.telemetry.schema import (
    SCHEMA_VERSION, normalized_stream, validate_stream,
)
from repro.telemetry.sinks import JsonlSink

#: n=3, k=2 one-shot, cut at 800 configurations.
SAFETY = "e3e09e75de83d9aee83bb59b51ed8674"
#: The same run cut at 120 configurations.
TRUNCATED = "1f96b037b19dde882425e91e1b6b913b"
#: Anonymous n=3, k=2 with orbit canonicalization.
CANONICAL = "8de1ea45d6a367c70e0173813675be3c"
#: Progress closure, m=1, 400 configurations.
PROGRESS = "78297fd739ef74c51e610e57ea4af215"
#: n=2, k=1 with two snapshot components: refuted, with its witness.
REFUTED = "d9fa094f9a563e22a48d4e179f36feb2"
#: n=2, k=1 one-shot (complete).
SMALL = "b42bd2d4b1ac42bf15b3ef6cbd9f92eb"


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def make_system():
    return System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    )


def make_anonymous():
    return System(
        AnonymousOneShotSetAgreement(n=3, m=1, k=2), workloads=[["v"]] * 3
    )


class DeadlineAfterBatches(Watchdog):
    """A deadline that expires after *batches* polls instead of seconds,
    so a run stops mid-way at the same point on any host."""

    def __init__(self, batches):
        super().__init__()
        self.batches = batches

    def poll(self):
        if self.batches <= 0:
            self.request_stop(DEADLINE_REASON)
        self.batches -= 1
        return super().poll()


def fingerprint(result):
    return verdict_fingerprint(result.identity_record())


def verdict(result):
    return dataclasses.asdict(result)


class TestVerdictIdentity:
    def test_safety_verdicts_are_bit_identical(self):
        result = explore_safety(make_system(), 2, max_configs=800)
        assert fingerprint(result) == SAFETY

    def test_canonicalized_verdicts_are_bit_identical(self):
        result = explore_safety(
            make_anonymous(), 2, max_configs=800, canonicalize=True
        )
        assert fingerprint(result) == CANONICAL

    def test_progress_closure_verdicts_are_bit_identical(self):
        result = explore_progress_closure(
            make_system(), 1, max_configs=400, solo_budget=400, batch_size=32
        )
        assert fingerprint(result) == PROGRESS

    def test_two_workers_match_the_pinned_verdict(self):
        result = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32, workers=2
        )
        assert fingerprint(result) == SAFETY

    def test_unsafe_counterexamples_are_bit_identical(self):
        # An under-provisioned instance is unsafe: the violation witness
        # and its schedule are part of the pinned identity.
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        result = explore_safety(system, 1)
        assert not result.ok
        assert result.safety_violations
        assert fingerprint(result) == REFUTED


class TestResume:
    def test_cache_truncation_resumes_to_pinned(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        truncated = explore_safety(
            make_system(), 2, max_configs=120, cache_dir=cache_dir
        )
        assert not truncated.complete
        assert fingerprint(truncated) == TRUNCATED
        resumed = explore_safety(
            make_system(), 2, max_configs=800, cache_dir=cache_dir
        )
        assert fingerprint(resumed) == SAFETY

    def test_journal_interrupt_resumes_to_pinned(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        interrupted = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32,
            journal_dir=journal_dir, watchdog=Watchdog(deadline=1e-6),
        )
        assert interrupted.interrupted == "deadline"
        resumed = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32,
            journal_dir=journal_dir,
        )
        assert resumed.recovery is not None
        assert fingerprint(resumed) == SAFETY

    def test_resume_saves_work(self, tmp_path):
        # Interrupted mid-run, the first leg keeps real progress and the
        # resume finishes only the remainder, on the same verdict.
        baseline = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32
        )
        assert fingerprint(baseline) == SAFETY
        journal_dir = str(tmp_path / "journal-midway")
        first_leg = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32,
            journal_dir=journal_dir, watchdog=DeadlineAfterBatches(5),
        )
        assert first_leg.interrupted == "deadline"
        assert 0 < first_leg.configs_explored < baseline.configs_explored
        second_leg = explore_safety(
            make_system(), 2, max_configs=800, batch_size=32,
            journal_dir=journal_dir,
        )
        assert second_leg.recovery is not None
        assert fingerprint(second_leg) == SAFETY

    def test_finished_entry_is_served_from_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        first = explore_safety(system, 1, cache_dir=cache_dir)
        assert first.complete
        assert fingerprint(first) == SMALL
        hit = explore_safety(system, 1, cache_dir=cache_dir)
        assert verdict(hit) == verdict(first)


class TestCliIdentity:
    ARGV = [
        "explore", "--protocol", "oneshot", "--n", "3", "--k", "2",
        "--max-configs", "400",
    ]

    def test_stdout_is_pinned(self, capsys):
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == (
            "explored 400 configurations (truncated): no violations\n"
            "  footprint: 912 memory steps (459 writes) over 3 registers "
            "(layout provisions 3)\n"
        )

    def test_backend_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--backend", "packed"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError):
            explore_safety(make_system(), 2, max_configs=10, backend="packed")


class TestPackedTelemetry:
    def traced(self, directory, **kwargs):
        session = telemetry.start(
            command="explore", mode="jsonl",
            sinks=[JsonlSink(str(directory))],
            attrs={"schema": SCHEMA_VERSION, "n": 3, "m": 1, "k": 2},
        )
        try:
            result = explore_safety(
                make_system(), 2, max_configs=800, batch_size=32, **kwargs
            )
        finally:
            session.close(exit_code=0, verdict="ok")
        return result

    def test_packed_streams_are_golden(self, tmp_path):
        first = self.traced(tmp_path / "first")
        telemetry.reset()
        second = self.traced(tmp_path / "second")
        assert verdict(first) == verdict(second)
        assert validate_stream(tmp_path / "first") == []
        assert normalized_stream(tmp_path / "first") == normalized_stream(
            tmp_path / "second"
        )

    @staticmethod
    def stream_counters(directory):
        """The run-summary counters dict from a raw JSONL stream."""
        import json
        import pathlib

        for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
            for line in path.read_text().splitlines():
                event = json.loads(line)
                counters = event.get("attrs", {}).get("counters")
                if counters:
                    return counters
        return {}

    def test_packed_counters_are_present_and_deterministic(self, tmp_path):
        self.traced(tmp_path / "first")
        telemetry.reset()
        self.traced(tmp_path / "second", workers=2)
        first = self.stream_counters(tmp_path / "first")
        second = self.stream_counters(tmp_path / "second")
        assert first["explore.packed.configs_encoded"] > 0
        assert first["explore.packed.bytes_encoded"] > 0
        for name in ("explore.packed.configs_encoded",
                     "explore.packed.bytes_encoded"):
            assert first[name] == second[name]

    def test_telemetry_is_observer_neutral_under_packed(self, tmp_path):
        plain = explore_safety(make_system(), 2, max_configs=800, batch_size=32)
        traced = self.traced(tmp_path / "traced")
        assert verdict(plain) == verdict(traced)
        assert fingerprint(traced) == SAFETY
