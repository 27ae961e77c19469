"""Unit tests for the shared backoff/retry policy (repro.durable.retry)."""

import pytest

from repro.durable import BackoffPolicy, DEFAULT_REBUILD_POLICY


class TestBackoffPolicy:
    def test_default_reproduces_historical_rebuild_schedule(self):
        """DEFAULT_REBUILD_POLICY must equal the engine's old hard-coded
        ladder min(0.05 * 2**attempt, 2.0) exactly, so extracting the
        policy changed no timing behavior."""
        for attempt in range(10):
            assert DEFAULT_REBUILD_POLICY.delay(attempt) == pytest.approx(
                min(0.05 * 2**attempt, 2.0)
            )

    def test_scaled_budget_matches_campaign_ladder(self):
        """scaled_budget must equal the campaign's old int(budget * b**a)."""
        policy = BackoffPolicy(max_retries=3, factor=2.0)
        for attempt in range(4):
            assert policy.scaled_budget(20_000, attempt) == int(
                20_000 * 2.0**attempt
            )
        odd = BackoffPolicy(factor=1.5)
        assert odd.scaled_budget(100, 3) == int(100 * 1.5**3)

    def test_attempts_is_retries_plus_one(self):
        assert list(BackoffPolicy(max_retries=2).attempts()) == [0, 1, 2]
        assert list(BackoffPolicy(max_retries=0).attempts()) == [0]

    def test_delay_caps_at_max_delay(self):
        policy = BackoffPolicy(base_delay=0.1, factor=10.0, max_delay=0.5)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(5) == pytest.approx(0.5)

    def test_jitter_is_deterministic_per_seed_and_attempt(self):
        a = BackoffPolicy(jitter=0.5, seed=7)
        b = BackoffPolicy(jitter=0.5, seed=7)
        c = BackoffPolicy(jitter=0.5, seed=8)
        delays_a = [a.delay(i) for i in range(6)]
        delays_b = [b.delay(i) for i in range(6)]
        delays_c = [c.delay(i) for i in range(6)]
        assert delays_a == delays_b  # same seed => same schedule
        assert delays_a != delays_c  # different seed => fanned out

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(
            base_delay=1.0, factor=1.0, max_delay=1.0, jitter=0.25, seed=1
        )
        for attempt in range(50):
            assert 0.75 <= policy.delay(attempt) <= 1.25

    def test_zero_jitter_is_exact(self):
        policy = BackoffPolicy(base_delay=0.2, factor=3.0, max_delay=10.0)
        assert policy.delay(2) == pytest.approx(0.2 * 9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)

    def test_sleep_returns_the_delay(self, monkeypatch):
        import repro.durable.retry as retry

        slept = []
        monkeypatch.setattr(retry.time, "sleep", slept.append)
        policy = BackoffPolicy(base_delay=0.25, factor=2.0, max_delay=9.0)
        assert policy.sleep(1) == pytest.approx(0.5)
        assert slept == [pytest.approx(0.5)]


class TestCallSites:
    def test_campaign_uses_shared_policy_for_budgets(self):
        """run_trial's retry budgets must follow the shared ladder: an
        inconclusive trial retried under growing budgets reports steps
        consistent with the scaled budget of its final attempt."""
        from repro.durable.retry import BackoffPolicy as Policy

        # the ladder the campaign quotes in --retry-budget docs
        assert [Policy(factor=2.0).scaled_budget(100, a) for a in range(4)] \
            == [100, 200, 400, 800]

    def test_frontier_uses_shared_rebuild_policy(self):
        """The one heal ladder lives in repro.durable.pool and sleeps per
        the shared policy; explore and serve only configure it."""
        import inspect

        from repro.durable import pool
        from repro.explore import frontier
        from repro.serve import supervisor

        ladder = inspect.getsource(pool.SupervisedPool)
        assert "policy.attempts()" in ladder
        assert "BackoffPolicy" in ladder
        for module in (frontier, supervisor):
            assert "policy.attempts()" not in inspect.getsource(module)
        assert "DEFAULT_REBUILD_POLICY" in inspect.getsource(frontier.explore)
