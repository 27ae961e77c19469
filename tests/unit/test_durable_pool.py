"""Unit tests for the shared supervised pool: heal, rebuild, degrade."""

import errno
import multiprocessing

import pytest

from repro.durable.pool import SupervisedPool
from repro.durable.retry import BackoffPolicy

FAST_POLICY = BackoffPolicy(max_retries=1, base_delay=0.0, max_delay=0.0)


class _FakePool:
    """A pool that answers in-process, or fails every submission with *error*."""

    def __init__(self, error=None):
        self.error = error

    def apply_async(self, fn, args):
        if self.error is not None:
            raise self.error
        self.value = fn(*args)
        return self

    def map_async(self, fn, items):
        return self.apply_async(lambda: [fn(item) for item in items], ())

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
