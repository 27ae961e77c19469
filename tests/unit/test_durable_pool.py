"""Unit tests for the shared supervised pool: heal, rebuild, degrade."""

import errno
import functools
import multiprocessing
import os
import time

import pytest

from repro.durable.pool import SupervisedPool, init_worker, make_pool
from repro.durable.retry import BackoffPolicy
from repro.faults.chaos import arm_worker_kills
from tests.conftest import run_bounded

FAST_POLICY = BackoffPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


class _FakePool:
    """A pool that answers in-process, or fails every submission with *error*."""

    def __init__(self, error=None):
        self.error = error
        self._pool = []  # no worker processes to watch

    def apply_async(self, fn, args, callback=None, error_callback=None):
        if self.error is not None:
            raise self.error
        self.value = fn(*args)
        callback(self.value)
        return self

    def map_async(self, fn, items, callback=None, error_callback=None):
        return self.apply_async(
            lambda: [fn(item) for item in items], (), callback, error_callback
        )

    def get(self, timeout=None):
        return self.value

    def terminate(self):
        pass

    join = terminate


def _WedgedPool():
    """A pool whose results never arrive."""
    return _FakePool(multiprocessing.TimeoutError())


def _supervised(retry_timeouts, *pools):
    """A SupervisedPool building *pools* in order, plus the list it built."""
    built = []

    def build():
        built.append(pools[len(built)])
        return built[-1]

    return SupervisedPool(build, FAST_POLICY, retry_timeouts=retry_timeouts), built


@pytest.mark.parametrize("retry_timeouts", [True, False], ids=["retry", "final"])
class TestHealing:
    def test_pool_failures_heal_then_degrade(self, retry_timeouts):
        lost = [_FakePool(RuntimeError("worker lost")) for _ in range(3)]
        pool, built = _supervised(retry_timeouts, *lost)
        # Every attempt built a fresh pool, failed, healed; then the pool
        # degraded and the caller is told to run the work itself.
        assert pool.apply(abs, (-1,), timeout=1.0) is None
        assert pool.degraded is True
        assert pool.incidents == len(built) == FAST_POLICY.max_retries + 1

    def test_degraded_pool_skips_the_build(self, retry_timeouts):
        lost = [_FakePool(RuntimeError("worker lost")) for _ in range(3)]
        pool, built = _supervised(retry_timeouts, *lost)
        assert pool.map(abs, [-1], timeout=1.0) is None
        incidents, builds = pool.incidents, len(built)
        assert pool.map(abs, [-1], timeout=1.0) is None  # straight through
        assert (pool.incidents, len(built)) == (incidents, builds)

    def test_unbuildable_pool_degrades_with_no_retries(self, retry_timeouts):
        def build():
            raise OSError(errno.EAGAIN, "fork refused")

        pool = SupervisedPool(build, FAST_POLICY, retry_timeouts=retry_timeouts)
        assert pool.apply(abs, (-1,), timeout=1.0) is None
        assert (pool.degraded, pool.incidents) == (True, 0)

    def test_wedged_pool(self, retry_timeouts):
        """A retried timeout is a lost task: the pool heals and the work
        lands.  A final one is raised once, and the next submission
        rebuilds.  Either way it is one incident, and no degradation."""
        pool, built = _supervised(retry_timeouts, _WedgedPool(), _FakePool())
        if retry_timeouts:
            assert pool.map(abs, [-1, 2], timeout=0.01) == [1, 2]
        else:
            with pytest.raises(multiprocessing.TimeoutError):
                pool.map(abs, [-1, 2], timeout=0.01)
            assert len(built) == 1
            assert pool.apply(abs, (-3,), timeout=0.01) == 3
        assert (len(built), pool.incidents, pool.degraded) == (2, 1, False)


def _double(kill, value):
    """Pool task: twice *value*, unless *kill* claims this worker first."""
    kill.maybe_kill()
    return 2 * value


def _die(value):
    """Pool task that kills the worker running it, every time."""
    os._exit(1)


def _real_pool(retry_timeouts=True):
    """A supervised pool of two real worker processes."""
    return SupervisedPool(
        lambda: make_pool(2, initializer=init_worker), FAST_POLICY,
        retry_timeouts=retry_timeouts,
    )


@pytest.mark.parametrize("retry_timeouts", [True, False], ids=["retry", "final"])
class TestWorkerDeath:
    """A dead worker is an incident at once, retried either way."""

    def test_one_death_heals_long_before_the_timeout(self, tmp_path, retry_timeouts):
        task = functools.partial(_double, arm_worker_kills(str(tmp_path), 1))
        pool = _real_pool(retry_timeouts)
        start = time.monotonic()
        try:
            assert pool.map(task, list(range(8)), timeout=30) == [
                2 * value for value in range(8)
            ]
        finally:
            pool.close()
        assert time.monotonic() - start < 10
        assert not os.listdir(tmp_path)  # the token was spent
        assert (pool.incidents, pool.degraded) == (1, False)

    def test_persistent_death_degrades(self, retry_timeouts):
        pool = _real_pool(retry_timeouts)
        start = time.monotonic()
        try:
            assert pool.apply(_die, (1,), timeout=30) is None
        finally:
            pool.close()
        assert time.monotonic() - start < 10
        assert pool.degraded is True
        assert pool.incidents == FAST_POLICY.max_retries + 1


NO_TIMEOUT_SCRIPT = """\
import functools, sys
from repro.faults.chaos import arm_worker_kills
from tests.unit.test_durable_pool import _double, _real_pool

pool = _real_pool()
task = functools.partial(_double, arm_worker_kills(sys.argv[1], 1))
try:
    print(pool.map(task, list(range(8)), timeout=None), pool.incidents,
          pool.degraded)
finally:
    pool.close()
"""


def test_one_death_without_a_timeout_completes(tmp_path):
    """No timeout is no longer a hang: the death alone is noticed."""
    done = run_bounded(NO_TIMEOUT_SCRIPT, str(tmp_path), timeout=60)
    assert done is not None, "the pool waited on the dead worker's task"
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[0, 2, 4, 6, 8, 10, 12, 14] 1 False"
