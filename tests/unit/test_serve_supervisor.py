"""Unit tests for worker supervision: execution, healing, degradation."""

import pytest

from repro.durable.retry import BackoffPolicy
from repro.serve.protocol import VerifyJob, verdict_fingerprint
from repro.serve.supervisor import WorkerSupervisor, execute_job
from tests.unit.test_durable_pool import _WedgedPool

# Small, fast jobs — verdicts are deterministic regardless of budget.
EXPLORE = VerifyJob(mode="explore", max_configs=2000)
RUN = VerifyJob(mode="run", max_steps=500)
FAULTS = VerifyJob(mode="faults", fault_family="crashes", trials=2,
                   budget=2000)

FAST_POLICY = BackoffPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


class TestExecuteJob:
    @pytest.mark.parametrize("job", [EXPLORE, RUN, FAULTS],
                             ids=["explore", "run", "faults"])
    def test_verdict_is_deterministic(self, job):
        first = execute_job(job.descriptor())
        second = execute_job(job.descriptor())
        assert first["outcome"] in ("ok", "refuted")
        assert verdict_fingerprint(first) == verdict_fingerprint(second)

    def test_payload_echoes_the_job(self):
        payload = execute_job(RUN.descriptor())
        assert payload["job"] == RUN.descriptor()

    def test_invalid_descriptor_is_an_error_not_a_raise(self):
        payload = execute_job({"n": 0})
        assert payload["outcome"] == "error"
        assert "n" in payload["detail"]

    def test_unknown_field_is_an_error(self):
        payload = execute_job({"max_confgs": 10})
        assert payload["outcome"] == "error"
        assert "unknown job field" in payload["detail"]

    def test_deadline_zero_budget_reports_incomplete(self):
        # A deadline this tight fires at the first poll boundary.
        payload = execute_job(EXPLORE.descriptor(), deadline=1e-9)
        assert payload["outcome"] == "incomplete"
        assert payload["reason"] == "deadline"


class TestSerialSupervisor:
    def test_serial_matches_inline_execution(self):
        supervisor = WorkerSupervisor(serial=True)
        supervisor.start()
        try:
            payload = supervisor.run_job(RUN)
            assert verdict_fingerprint(payload) == verdict_fingerprint(
                execute_job(RUN.descriptor())
            )
            assert supervisor.status()["degraded"] is True
            assert supervisor.status()["workers"] == 0
        finally:
            supervisor.stop()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(workers=0)


class TestHealing:
    def test_wedged_worker_is_incomplete_not_retried(self, monkeypatch):
        """A backstop timeout means the job blew past deadline + grace;
        retrying a deterministically over-budget job would waste the
        whole ladder, so the supervisor reports incomplete once."""
        supervisor = WorkerSupervisor(job_deadline=0.01, policy=FAST_POLICY)
        monkeypatch.setattr(supervisor._pool, "_build", _WedgedPool)
        payload = supervisor.run_job(RUN)
        assert payload == {
            "outcome": "incomplete", "reason": "deadline",
            "job": RUN.descriptor(),
        }
        assert supervisor.degraded is False
        assert supervisor.rebuilds == 1


class TestRealPool:
    def test_pooled_verdict_matches_serial(self):
        """One real fork worker produces the same fingerprint as inline
        execution — worker identity leaves no trace in the payload."""
        supervisor = WorkerSupervisor(workers=1, policy=FAST_POLICY)
        supervisor.start()
        try:
            payload = supervisor.run_job(EXPLORE)
        finally:
            supervisor.stop()
        assert supervisor.degraded is False
        assert verdict_fingerprint(payload) == verdict_fingerprint(
            execute_job(EXPLORE.descriptor())
        )
