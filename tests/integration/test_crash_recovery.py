"""Integration: kill the process for real, resume, get the same answer.

These tests exercise the durable run journal end to end against actual
process death — ``SIGKILL`` to a whole process group (nothing flushes,
nothing runs ``finally``), ``SIGTERM`` to the CLI (graceful checkpoint,
exit 143), and the ``--deadline`` watchdog (checkpoint, exit 3).  In
every case the resumed run's verdict must be bit-identical to an
uninterrupted run's, excluding only the documented health-history fields.

When ``REPRO_CRASH_ARTIFACTS`` is set (the CI kill-and-resume job sets
it), each test's surviving journal directories are copied there at
teardown so a failure ships the exact on-disk bytes that confused
recovery.
"""

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro import OneShotSetAgreement, System
from repro.explore import explore_safety
from repro.faults.campaign import run_campaign
from repro.faults.chaos import arm_worker_kills
from repro.faults.plans import corruption_plan_family

#: ExplorationResult fields that describe *how* a run went, not *what* it
#: found; excluded from bit-identity comparisons (see repro.explore.checker).
EXPLORE_HISTORY_FIELDS = ("worker_retries", "degraded", "interrupted",
                          "recovery")
#: Same for FaultReport (see repro.faults.campaign).
CAMPAIGN_HISTORY_FIELDS = ("elapsed_seconds", "interrupted", "recovery")


def make_system():
    return System(
        OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
    )


def verdict_record(result, history_fields=EXPLORE_HISTORY_FIELDS):
    record = dataclasses.asdict(result)
    for name in history_fields:
        record.pop(name)
    return record


def wait_for_journal_bytes(journal_dir, *, timeout=60.0):
    """Block until some run journal under *journal_dir* has a record."""
    deadline = time.monotonic() + timeout
    journal_dir = str(journal_dir)
    while time.monotonic() < deadline:
        for root, _dirs, files in os.walk(journal_dir):
            for name in files:
                if name == "journal.bin":
                    path = os.path.join(root, name)
                    try:
                        if os.path.getsize(path) > 9:  # header + a record
                            return path
                    except OSError:
                        pass
        time.sleep(0.005)
    raise AssertionError(f"no journal record appeared under {journal_dir}")


@pytest.fixture(autouse=True)
def ship_artifacts(request, tmp_path):
    """Copy surviving journals to $REPRO_CRASH_ARTIFACTS for CI upload."""
    yield
    target = os.environ.get("REPRO_CRASH_ARTIFACTS")
    if not target:
        return
    dest = os.path.join(target, request.node.name)
    for root, dirs, _files in os.walk(str(tmp_path)):
        for name in dirs:
            if name.endswith(".journal"):
                source = os.path.join(root, name)
                shutil.copytree(
                    source, os.path.join(dest, name), dirs_exist_ok=True
                )


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


EXPLORE_SCRIPT = """\
import sys
from repro import OneShotSetAgreement, System
from repro.explore import explore_safety

system = System(
    OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
)
explore_safety(
    system, 2, max_configs=6000, workers=2, batch_size=16,
    batch_timeout=30.0, journal_dir=sys.argv[1], checkpoint_every=4,
)
"""

CAMPAIGN_SCRIPT = """\
import sys
from repro import OneShotSetAgreement, System
from repro.faults.campaign import run_campaign
from repro.faults.plans import corruption_plan_family

system = System(
    OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
)
plans = corruption_plan_family(system, trials=8, seed=11)
run_campaign(
    system, plans, family="corruption", budget=4000,
    journal_dir=sys.argv[1], checkpoint_every=2,
)
"""


class TestSigkillRecovery:
    def test_explore_killpg_then_resume_is_bit_identical(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        proc = subprocess.Popen(
            [sys.executable, "-c", EXPLORE_SCRIPT, journal_dir],
            env=subprocess_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_journal_bytes(journal_dir)
        finally:
            # SIGKILL the whole group: the coordinator AND its pool
            # workers die with no flush, no atexit, no finally
            os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL

        resumed = explore_safety(
            make_system(), 2, max_configs=6000, workers=2, batch_size=16,
            batch_timeout=30.0, journal_dir=journal_dir, checkpoint_every=4,
        )
        assert resumed.recovery is not None
        assert (resumed.recovery.checkpoint_loaded
                or resumed.recovery.records_recovered > 0)

        baseline = explore_safety(
            make_system(), 2, max_configs=6000, workers=2, batch_size=16,
            batch_timeout=30.0,
        )
        assert verdict_record(resumed) == verdict_record(baseline)

    def test_campaign_killpg_then_resume_is_bit_identical(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        proc = subprocess.Popen(
            [sys.executable, "-c", CAMPAIGN_SCRIPT, journal_dir],
            env=subprocess_env(), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_journal_bytes(journal_dir)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL

        system = make_system()
        plans = corruption_plan_family(system, trials=8, seed=11)
        resumed = run_campaign(
            system, plans, family="corruption", budget=4000,
            journal_dir=journal_dir, checkpoint_every=2,
        )
        assert resumed.recovery is not None
        assert (resumed.recovery.checkpoint_loaded
                or resumed.recovery.records_recovered > 0)

        baseline = run_campaign(
            system, plans, family="corruption", budget=4000,
        )
        assert (verdict_record(resumed, CAMPAIGN_HISTORY_FIELDS)
                == verdict_record(baseline, CAMPAIGN_HISTORY_FIELDS))


class TestCliSignals:
    CLI = ["explore", "--n", "3", "--m", "1", "--k", "2",
           "--max-configs", "6000", "--batch-timeout", "30"]

    def run_cli(self, extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.CLI, *extra],
            env=subprocess_env(), capture_output=True, text=True,
            timeout=300,
        )

    def explored_line(self, output):
        lines = [l for l in output.splitlines() if l.startswith("explored")]
        assert lines, f"no explored summary in: {output!r}"
        return lines[0]

    def test_sigterm_checkpoints_then_resume_matches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CLI,
             "--resume", "--cache-dir", cache_dir, "--checkpoint-every", "4"],
            env=subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        wait_for_journal_bytes(cache_dir)
        proc.send_signal(signal.SIGTERM)
        out, _err = proc.communicate(timeout=120)
        assert proc.returncode == 143
        assert "checkpointed on sigterm" in out

        resumed = self.run_cli(
            ["--resume", "--cache-dir", cache_dir, "--checkpoint-every", "4"]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "recovery" in resumed.stdout  # the salvage was reported

        plain = self.run_cli([])
        assert plain.returncode == 0, plain.stderr
        assert (self.explored_line(resumed.stdout)
                == self.explored_line(plain.stdout))

    def test_deadline_exits_three_then_resume_completes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        flags = ["--resume", "--cache-dir", cache_dir,
                 "--checkpoint-every", "4"]
        interrupted = self.run_cli([*flags, "--deadline", "0.2"])
        assert interrupted.returncode == 3, interrupted.stdout
        assert "checkpointed on deadline" in interrupted.stdout

        resumed = self.run_cli(flags)
        assert resumed.returncode == 0, resumed.stderr

        plain = self.run_cli([])
        assert plain.returncode == 0, plain.stderr
        assert (self.explored_line(resumed.stdout)
                == self.explored_line(plain.stdout))


class TestChaosWithJournal:
    def test_worker_kills_plus_journal_still_bit_identical(self, tmp_path):
        """The chaos and durability subsystems compose: a journaled run
        that loses (and heals) a pool worker mid-flight produces the same
        verdict as a healthy run, and its finished checkpoint serves the
        next call."""
        healthy = explore_safety(
            make_system(), 2, max_configs=2_000, workers=2, batch_size=16,
        )
        journal_dir = str(tmp_path / "journal")
        chaos = arm_worker_kills(str(tmp_path / "kills"), 1)
        healed = explore_safety(
            make_system(), 2, max_configs=2_000, workers=2, batch_size=16,
            batch_timeout=10.0, max_retries=3, chaos=chaos,
            journal_dir=journal_dir, checkpoint_every=4,
        )
        assert healed.worker_retries >= 1
        assert verdict_record(healed) == verdict_record(healthy)

        replayed = explore_safety(
            make_system(), 2, max_configs=2_000, workers=2, batch_size=16,
            journal_dir=journal_dir, checkpoint_every=4,
        )
        assert replayed.recovery is not None
        assert replayed.recovery.checkpoint_loaded
        assert verdict_record(replayed) == verdict_record(healthy)


class TestJournalOverhead:
    def test_journaled_verdict_and_overhead(self, tmp_path):
        """Journaling every merged batch changes no verdict and, min of 3,
        costs at most 30% wall-clock over a plain run (a backstop a noisy
        shared host cannot trip; the measured overhead is ~5%)."""
        def best_of_3(journaled):
            best, result = float("inf"), None
            for rep in range(3):
                # A fresh journal per repetition: a finished checkpoint
                # would answer the next call without exploring.
                kwargs = dict(journal_dir=str(tmp_path / f"journal-{rep}"),
                              checkpoint_every=16) if journaled else {}
                t0 = time.perf_counter()
                result = explore_safety(
                    make_system(), 2, max_configs=12_000, batch_size=64,
                    **kwargs,
                )
                best = min(best, time.perf_counter() - t0)
            return best, result

        t_plain, plain = best_of_3(journaled=False)
        t_journal, journaled = best_of_3(journaled=True)
        assert verdict_record(journaled) == verdict_record(plain)
        overhead = t_journal / t_plain - 1.0
        assert overhead <= 0.30, (
            f"journaling overhead {overhead:.1%} exceeds the 30% backstop"
        )
