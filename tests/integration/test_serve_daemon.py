"""Integration: the serve daemon against real process death and real load.

The two acceptance properties of the serving tentpole, asserted end to
end against actual subprocess daemons:

* **kill-and-resume** — ``SIGKILL`` the daemon (whole process group,
  nothing flushes) mid-job; a restart on the same data dir replays the
  journaled job and stores a verdict whose fingerprint is bit-identical
  to an uninterrupted execution's;
* **explicit backpressure, zero loss** — sustained submission past the
  queue bound yields busy responses carrying ``retry_after``, and every
  job that was *accepted* eventually has a stored verdict — accepted
  work is never dropped, refused work is never silently buffered.

A memoization backstop rides along: a cache hit answers at least 10x
faster than the cold verify it repeats.
"""

import os
import signal
import subprocess
import sys
import time

from repro.serve import client
from repro.serve.protocol import VerifyJob, verdict_fingerprint
from repro.serve.server import resolve_endpoint
from repro.serve.store import VerdictStore
from repro.serve.supervisor import execute_job


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def start_daemon(data_dir, *extra):
    """Launch `repro serve` in its own process group; return the Popen."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data-dir", str(data_dir), *extra],
        env=subprocess_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_for_endpoint(data_dir, *, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            host, port = resolve_endpoint(data_dir)
        except Exception:
            time.sleep(0.05)
            continue
        try:
            client.status(host, port, timeout=2.0)
            return host, port
        except Exception:
            time.sleep(0.05)
    raise AssertionError(f"no live daemon under {data_dir}")


def killpg_hard(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TestKillAndResume:
    def test_sigkill_mid_job_replay_is_bit_identical(self, tmp_path):
        data_dir = tmp_path / "serve"
        # Slow enough that the kill lands mid-execution, fast enough
        # that the replay finishes promptly.
        job = VerifyJob(mode="explore", max_configs=20_000)

        proc = start_daemon(data_dir)
        try:
            host, port = wait_for_endpoint(data_dir)
            accepted = client.verify(host, port, job.descriptor(),
                                     wait=False, timeout=10.0)
            assert accepted["ok"] is True and accepted["key"] == job.key
            # The accept response means the admit record is fsynced; give
            # the dispatcher a moment to be genuinely mid-job, then shoot
            # the whole group — daemon and pool worker, no finally blocks.
            time.sleep(1.0)
        finally:
            killpg_hard(proc)
        assert proc.wait(timeout=60) == -signal.SIGKILL
        # The dead daemon never finished: no verdict on disk.
        assert VerdictStore(data_dir / "store").get(job.key) is None

        resumed = start_daemon(data_dir, "--max-jobs", "1")
        try:
            assert resumed.wait(timeout=300) == 0
        finally:
            killpg_hard(resumed)

        entry = VerdictStore(data_dir / "store").get(job.key)
        assert entry is not None, "replayed job left no verdict"
        control = execute_job(job.descriptor())
        assert control["outcome"] in ("ok", "refuted")
        assert entry["fingerprint"] == verdict_fingerprint(control)
        assert entry["result"] == control


class TestBackpressureZeroLoss:
    def test_saturation_is_explicit_and_accepted_jobs_all_finish(
        self, tmp_path
    ):
        data_dir = tmp_path / "serve"
        jobs = [
            VerifyJob(mode="explore", max_configs=8_000, seed=i + 1)
            for i in range(6)
        ]
        proc = start_daemon(
            data_dir, "--queue-capacity", "2", "--retry-after", "0.2"
        )
        try:
            host, port = wait_for_endpoint(data_dir)
            accepted, busy_seen = {}, 0
            deadline = time.monotonic() + 240
            outstanding = list(jobs)
            while outstanding and time.monotonic() < deadline:
                job = outstanding[0]
                answer = client.verify(host, port, job.descriptor(),
                                       wait=False, timeout=10.0)
                if answer.get("ok"):
                    # accepted now, or already memoized from a prior loop
                    accepted[job.key] = answer
                    outstanding.pop(0)
                else:
                    assert answer["busy"] is True, answer
                    assert answer["retry_after"] == 0.2
                    assert answer["depth"] >= answer["capacity"] == 2
                    busy_seen += 1
                    time.sleep(answer["retry_after"])
            assert not outstanding, "submission never drained"
            assert busy_seen > 0, (
                "queue never saturated; make the jobs slower or the "
                "capacity smaller"
            )
            assert len(accepted) == len(jobs)

            # Zero accepted-job loss: every accepted key reaches a stored
            # verdict (the daemon is still running — poll the result op).
            deadline = time.monotonic() + 240
            unresolved = {job.key for job in jobs}
            while unresolved and time.monotonic() < deadline:
                for key in sorted(unresolved):
                    answer = client.result(host, port, key, timeout=10.0)
                    if answer.get("ok"):
                        assert answer["verdict"]["outcome"] in (
                            "ok", "refuted"
                        )
                        unresolved.discard(key)
                if unresolved:
                    time.sleep(0.2)
            assert not unresolved, f"accepted jobs lost: {unresolved}"

            polled = client.status(host, port, timeout=10.0)["status"]
            assert polled["queue"]["rejected"] == busy_seen
            assert polled["queue"]["accepted"] >= len(jobs) - 1
            assert polled["cache"]["entries"] == len(jobs)

            goodbye = client.shutdown(host, port, timeout=10.0)
            assert goodbye["ok"] is True
            assert proc.wait(timeout=60) == 0
        finally:
            killpg_hard(proc)


class TestMemoization:
    def test_cache_hit_is_ten_times_faster_than_cold(self, tmp_path):
        """A resubmitted job is answered from the verdict store: the best
        of 20 hits must beat the cold verify by at least 10x (a backstop;
        the hit is a protocol round trip plus one store read)."""
        data_dir = tmp_path / "serve"
        job = VerifyJob(mode="explore", max_configs=8_000)
        proc = start_daemon(data_dir)
        try:
            host, port = wait_for_endpoint(data_dir)
            t0 = time.perf_counter()
            cold = client.verify(host, port, job.descriptor(), timeout=600.0)
            t_cold = time.perf_counter() - t0
            assert cold["ok"] is True and cold["cached"] is False, cold

            t_hit = float("inf")
            for _ in range(20):
                t0 = time.perf_counter()
                hit = client.verify(host, port, job.descriptor(),
                                    timeout=60.0)
                t_hit = min(t_hit, time.perf_counter() - t0)
                assert hit["ok"] is True and hit["cached"] is True, hit
                assert hit["fingerprint"] == cold["fingerprint"]

            client.shutdown(host, port, timeout=10.0)
            assert proc.wait(timeout=60) == 0
        finally:
            killpg_hard(proc)
        speedup = t_cold / t_hit
        assert speedup >= 10, f"cache hit only {speedup:.1f}x faster than cold"


class TestGracefulSignals:
    def test_sigterm_exits_143(self, tmp_path):
        data_dir = tmp_path / "serve"
        proc = start_daemon(data_dir)
        try:
            wait_for_endpoint(data_dir)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
        finally:
            killpg_hard(proc)

    def test_restart_after_graceful_shutdown_serves_the_cache(self, tmp_path):
        """Verdicts survive daemon generations: a job verified by one
        daemon is a cache hit on the next."""
        data_dir = tmp_path / "serve"
        job = VerifyJob(mode="run", max_steps=500)
        proc = start_daemon(data_dir)
        try:
            host, port = wait_for_endpoint(data_dir)
            cold = client.verify(host, port, job.descriptor(), timeout=120.0)
            assert cold["ok"] is True and cold["cached"] is False
            client.shutdown(host, port, timeout=10.0)
            assert proc.wait(timeout=60) == 0
        finally:
            killpg_hard(proc)

        second = start_daemon(data_dir)
        try:
            host, port = wait_for_endpoint(data_dir)
            hit = client.verify(host, port, job.descriptor(), timeout=10.0)
            assert hit["ok"] is True and hit["cached"] is True
            assert hit["fingerprint"] == cold["fingerprint"]
            client.shutdown(host, port, timeout=10.0)
            assert second.wait(timeout=60) == 0
        finally:
            killpg_hard(second)
