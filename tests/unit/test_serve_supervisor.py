"""Unit tests for worker supervision: execution, healing, degradation."""

import json
import os
import pathlib
import signal
import threading
import time

import pytest

from repro import telemetry
from repro.durable.retry import BackoffPolicy
from repro.serve import supervisor as supervisor_module
from repro.serve.protocol import VerifyJob, verdict_fingerprint
from repro.serve.supervisor import WorkerSupervisor, execute_job
from tests.conftest import run_bounded
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

    def test_worker_killed_mid_job_heals_without_a_deadline(self, tmp_path):
        """No job deadline, so no backstop timeout: the SIGKILLed worker
        is noticed through its sentinel, the job is retried on a rebuilt
        pool, and it lands with the undisturbed verdict.  In a
        subprocess, so a regression fails the test instead of hanging it."""
        done = run_bounded(KILL_MID_JOB_SCRIPT, str(tmp_path), timeout=60)
        assert done is not None, "the job waited on the dead worker forever"
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "fingerprint": verdict_fingerprint(execute_job(EXPLORE.descriptor())),
            "marks": [["serve.pool_incident", {"kind": "pool-failure"}]],
            "rebuilds": 1,
            "degraded": False,
        }


def kill_mid_job(scratch):
    """Run EXPLORE on a one-worker supervisor with no job deadline while
    a thread SIGKILLs the worker mid-job; what the supervisor reports.

    Patches the job executor and ``telemetry.mark`` for good, so it runs
    in a process of its own (:data:`KILL_MID_JOB_SCRIPT`).
    """
    started = pathlib.Path(scratch) / "started"
    run_explore = supervisor_module._EXECUTORS["explore"]

    def hold_first_attempt(job, watchdog):
        # Worker side: the first attempt announces its pid and waits to
        # be killed; the retry finds the file and runs the job.
        if not started.exists():
            staged = started.with_name("staged")
            staged.write_text(str(os.getpid()))
            staged.rename(started)
            time.sleep(60)
        return run_explore(job, watchdog)

    def kill_the_worker():
        while not started.exists():
            time.sleep(0.01)
        os.kill(int(started.read_text()), signal.SIGKILL)

    marks = []
    supervisor_module._EXECUTORS["explore"] = hold_first_attempt
    telemetry.mark = lambda name, **attrs: marks.append((name, attrs))
    supervisor = WorkerSupervisor(workers=1, policy=FAST_POLICY)
    supervisor.start()
    threading.Thread(target=kill_the_worker, daemon=True).start()
    try:
        payload = supervisor.run_job(EXPLORE)
    finally:
        supervisor.stop()
    return {
        "fingerprint": verdict_fingerprint(payload),
        "marks": marks,
        "rebuilds": supervisor.rebuilds,
        "degraded": supervisor.degraded,
    }


KILL_MID_JOB_SCRIPT = """\
import json, sys
from tests.unit.test_serve_supervisor import kill_mid_job

print(json.dumps(kill_mid_job(sys.argv[1])))
"""
