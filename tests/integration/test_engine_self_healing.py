"""Integration: the explore engine survives worker death, verdicts intact.

Worker death is injected deterministically through the token protocol of
:mod:`repro.faults.chaos`: each token file licenses exactly one pool
worker to ``os._exit`` mid-batch.  The engine must (a) recover a single
death via pool rebuild + batch resubmission, and (b) degrade to serial
in-process expansion under persistent death — in both cases producing
verdicts, counts, and witness schedules bit-identical to a healthy run.
"""

import dataclasses
import json

import pytest

from repro import OneShotSetAgreement, System
from repro.explore import explore_safety
from repro.faults.chaos import arm_worker_kills
from tests.conftest import run_bounded


def make_system(components=None):
    kwargs = dict(n=3, m=1, k=1)
    if components is not None:
        kwargs["components"] = components
    return System(
        OneShotSetAgreement(**kwargs), workloads=[["a"], ["b"], ["c"]]
    )


def verdict_record(result):
    """An ExplorationResult minus the self-healing history fields."""
    record = dataclasses.asdict(result)
    record.pop("worker_retries")
    record.pop("degraded")
    return record


NO_TIMEOUT_SCRIPT = """\
import json, sys
from repro.explore import explore_safety
from repro.faults.chaos import arm_worker_kills
from tests.integration.test_engine_self_healing import make_system, verdict_record

serial = explore_safety(make_system(), 1, max_configs=2_000, workers=1,
                        batch_size=16)
healed = explore_safety(make_system(), 1, max_configs=2_000, workers=2,
                        batch_size=16, chaos=arm_worker_kills(sys.argv[1], 1))
print(json.dumps({
    "same_verdict": verdict_record(healed) == verdict_record(serial),
    "worker_retries": healed.worker_retries,
    "degraded": healed.degraded,
}))
"""


class TestSelfHealing:
    def test_single_worker_death_recovers_identically(self, tmp_path):
        healthy = explore_safety(make_system(), 1, max_configs=2_000,
                                 workers=2, batch_size=16)
        chaos = arm_worker_kills(str(tmp_path / "kills"), 1)
        healed = explore_safety(
            make_system(), 1, max_configs=2_000, workers=2, batch_size=16,
            batch_timeout=10.0, max_retries=3, chaos=chaos,
        )
        assert healed.worker_retries >= 1
        assert not healed.degraded
        assert verdict_record(healed) == verdict_record(healthy)

    def test_persistent_death_degrades_to_serial_identically(self, tmp_path):
        healthy = explore_safety(make_system(), 1, max_configs=2_000,
                                 workers=2, batch_size=16)
        chaos = arm_worker_kills(str(tmp_path / "kills"), 64)
        degraded = explore_safety(
            make_system(), 1, max_configs=2_000, workers=2, batch_size=16,
            batch_timeout=2.0, max_retries=2, chaos=chaos,
        )
        assert degraded.degraded
        assert degraded.worker_retries == 3  # max_retries + the final failure
        assert verdict_record(degraded) == verdict_record(healthy)

    def test_violation_witness_survives_degradation(self, tmp_path):
        """Degradation must not change *what* is found: an under-provisioned
        instance yields the same certified witness schedule."""
        healthy = explore_safety(make_system(components=2), 1,
                                 max_configs=4_000, workers=2, batch_size=16)
        assert healthy.safety_violations
        chaos = arm_worker_kills(str(tmp_path / "kills"), 64)
        degraded = explore_safety(
            make_system(components=2), 1, max_configs=4_000, workers=2,
            batch_size=16, batch_timeout=2.0, max_retries=1, chaos=chaos,
        )
        assert degraded.degraded
        assert verdict_record(degraded) == verdict_record(healthy)

    def test_single_worker_death_without_a_timeout_recovers(self, tmp_path):
        """No ``batch_timeout``: the death alone is noticed, so the run
        heals instead of waiting on the lost task forever.  In a
        subprocess, so a regression fails the test instead of hanging it."""
        done = run_bounded(NO_TIMEOUT_SCRIPT, str(tmp_path / "kills"),
                           timeout=120)
        assert done is not None, "explore waited on the dead worker's task"
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "same_verdict": True, "worker_retries": 1, "degraded": False,
        }

    def test_healthy_run_with_timeout_reports_no_healing(self):
        result = explore_safety(make_system(), 1, max_configs=2_000,
                                workers=2, batch_size=16, batch_timeout=60.0)
        assert result.worker_retries == 0
        assert not result.degraded

    def test_bad_healing_parameters_rejected(self):
        with pytest.raises(ValueError):
            explore_safety(make_system(), 1, max_configs=100,
                           batch_timeout=0.0)
        with pytest.raises(ValueError):
            explore_safety(make_system(), 1, max_configs=100, max_retries=-1)


def test_unbuildable_pool_degrades_to_serial_identically(monkeypatch):
    """A pool that cannot be built (fork refused) must not crash the run:
    it completes in-process, with no retries spent."""
    import errno

    from repro.explore import frontier

    serial = explore_safety(make_system(), 1, max_configs=500, workers=1)

    def refuse(*args, **kwargs):
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(frontier, "_make_pool", refuse)
    degraded = explore_safety(make_system(), 1, max_configs=500, workers=2,
                              batch_timeout=5.0)
    assert degraded.degraded
    assert degraded.worker_retries == 0
    assert verdict_record(degraded) == verdict_record(serial)
