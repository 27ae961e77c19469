"""The parallel exploration engine certifies exactly what the sequential
path certifies — same closure, same counterexamples, same counts — and
worker-side failures cross the pool as structured errors, never hangs.
Orbit canonicalization certifies the same verdict on fewer states."""

import dataclasses
import os
import time

import pytest

from repro import OneShotSetAgreement, System
from repro._types import Params
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.durable.journal import RunJournal
from repro.errors import ExplorationEngineError
from repro.explore import explore_progress_closure, explore_safety
from repro.memory.layout import register_layout
from repro.runtime.automaton import ProtocolAutomaton
from repro.runtime.runner import replay
from repro.spec.properties import check_k_agreement


def result_record(result):
    """An ExplorationResult as a comparable value."""
    return dataclasses.asdict(result)


def verdict_record(result):
    """An ExplorationResult minus ``recovery``, its resume history."""
    record = result_record(result)
    record.pop("recovery")
    return record


class TestWorkerParity:
    def test_safe_instance_identical_outcome(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        sequential = explore_safety(system, k=1)
        parallel = explore_safety(system, k=1, workers=4)
        assert sequential.complete and sequential.ok
        assert result_record(parallel) == result_record(sequential)

    def test_violating_instance_identical_witness(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        sequential = explore_safety(system, k=1)
        parallel = explore_safety(system, k=1, workers=4)
        assert result_record(parallel) == result_record(sequential)
        witness = parallel.safety_violations[0]
        execution = replay(system, witness.schedule)
        assert check_k_agreement(execution, k=1)

    def test_batch_size_does_not_change_outcome(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        small = explore_safety(system, k=1, workers=2, batch_size=3)
        large = explore_safety(system, k=1, workers=2, batch_size=512)
        assert result_record(small) == result_record(large)

    def test_canonicalized_parallel_parity(self):
        system = System(
            AnonymousOneShotSetAgreement(n=3, m=1, k=1),
            workloads=[["v"], ["v"], ["v"]],
        )
        sequential = explore_safety(system, k=1, canonicalize=True)
        parallel = explore_safety(system, k=1, canonicalize=True, workers=4)
        assert result_record(parallel) == result_record(sequential)
        assert sequential.complete and sequential.ok

    def test_progress_closure_parity(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        sequential = explore_progress_closure(system, m=1)
        parallel = explore_progress_closure(system, m=1, workers=4)
        assert sequential.complete and sequential.ok
        assert result_record(parallel) == result_record(sequential)

    def test_truncated_progress_closure_parity(self):
        """A run cut by ``max_configs`` stops on the same frontier for any
        worker count.  Sharding may only change wall-clock, and on a host
        with at least four cores it must make the run faster."""
        system = System(
            OneShotSetAgreement(n=3, m=1, k=2), workloads=[["a"], ["b"], ["c"]]
        )
        results, seconds = {}, {}
        for workers in (1, 4):
            t0 = time.perf_counter()
            results[workers] = explore_progress_closure(
                system, m=1, max_configs=2_000, solo_budget=2_000,
                workers=workers, batch_size=32,
            )
            seconds[workers] = time.perf_counter() - t0
        assert not results[1].complete
        assert result_record(results[4]) == result_record(results[1])
        cores = os.cpu_count() or 1
        if cores >= 4:
            assert seconds[1] / seconds[4] > 1.0, (
                f"{cores} cores but workers=4 was not faster "
                f"({seconds[1]:.2f}s -> {seconds[4]:.2f}s)"
            )


class TestSymmetryDedup:
    def test_orbits_dedup_all_equal_inputs(self):
        """On anonymous instances with all-equal inputs (the maximal
        orbit), quotienting by process-identity orbits certifies the same
        complete, safe closure, and at least one instance explores
        >= 2x fewer states."""
        ratios = []
        for n, m, k in [(3, 1, 1), (4, 1, 3)]:
            system = System(
                AnonymousOneShotSetAgreement(n=n, m=m, k=k),
                workloads=[["v"]] * n,
            )
            plain = explore_safety(system, k=k, max_configs=300_000)
            canon = explore_safety(
                system, k=k, max_configs=300_000, canonicalize=True
            )
            assert plain.complete and canon.complete
            assert plain.ok and canon.ok
            ratios.append(plain.configs_discovered / canon.configs_discovered)
        assert max(ratios) >= 2.0, f"dedup ratios {ratios}: none >= 2"


class ExplodingAutomaton(ProtocolAutomaton):
    """Raises mid-expansion: exercises worker failure propagation."""

    name = "exploding"

    def default_layout(self):
        """One register, never touched."""
        return register_layout("R", 1)

    def begin(self, ctx, persistent, value, invocation):
        """One thread, poised to explode."""
        return ("armed",)

    def pending(self, ctx, thread, state):
        """Boom."""
        raise RuntimeError("exploding automaton detonated")

    def apply(self, ctx, thread, state, response):
        """Unreachable."""
        return state


class TestFailurePropagation:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_oracle_exception_is_structured(self, workers):
        system = System(ExplodingAutomaton(Params()), workloads=[["a"], ["b"]])
        with pytest.raises(ExplorationEngineError) as excinfo:
            explore_safety(system, k=1, workers=workers)
        failure = excinfo.value.failure
        assert failure.kind == "RuntimeError"
        assert "detonated" in failure.detail
        assert "detonated" in failure.traceback
        assert failure.config_fingerprint

    @pytest.mark.parametrize("workers", [1, 2])
    def test_step_limit_is_a_progress_counterexample(self, workers):
        """StepLimitExceeded inside the progress oracle is a verdict, not a
        crash: it crosses the pool as a ProgressCounterexample."""
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        result = explore_progress_closure(
            system, m=1, solo_budget=2, workers=workers
        )
        assert not result.complete
        assert result.progress_violations
        assert "exceeded 2" in result.progress_violations[0].detail


class TestResume:
    def test_truncated_run_resumes_to_completion(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        truncated = explore_safety(
            system, k=1, max_configs=200, cache_dir=cache_dir
        )
        assert not truncated.complete
        assert truncated.configs_explored == 200
        resumed = explore_safety(
            system, k=1, max_configs=5_000, cache_dir=cache_dir
        )
        fresh = explore_safety(system, k=1, max_configs=5_000)
        assert resumed.complete
        assert resumed.recovery.checkpoint_loaded
        assert verdict_record(resumed) == verdict_record(fresh)

    def test_finished_entry_served_without_reexploring(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        first = explore_safety(system, k=1, cache_dir=cache_dir)
        entries = list((tmp_path / "cache").iterdir())
        assert len(entries) == 1
        assert entries[0].suffix == ".journal"
        _, ck, records, report = RunJournal.open_run(
            cache_dir, entries[0].stem
        )
        assert report.checkpoint_finished and records == []
        assert result_record(ck["result"]) == result_record(first)
        again = explore_safety(system, k=1, cache_dir=cache_dir)
        assert result_record(again) == result_record(first)
        # under its own name the journal says where the answer came from
        hit = explore_safety(system, k=1, journal_dir=cache_dir)
        assert hit.recovery.checkpoint_finished
        assert verdict_record(hit) == verdict_record(first)

    def test_different_parameters_use_different_keys(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        base = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        other = System(
            OneShotSetAgreement(n=2, m=1, k=1, components=2),
            workloads=[["a"], ["b"]],
        )
        explore_safety(base, k=1, cache_dir=cache_dir)
        explore_safety(other, k=1, cache_dir=cache_dir)
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        first = explore_safety(system, k=1, cache_dir=cache_dir)
        run_dir = next((tmp_path / "cache").iterdir())
        (run_dir / "checkpoint.bin").write_bytes(b"not a pickle")
        again = explore_safety(system, k=1, cache_dir=cache_dir)
        assert again.recovery.quarantined == ["checkpoint.bin"]
        assert (tmp_path / "cache" / "quarantine" / "checkpoint.bin").exists()
        assert verdict_record(again) == verdict_record(first)

    def test_cache_dir_is_another_name_for_journal_dir(self, tmp_path):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["b"]]
        )
        store = str(tmp_path / "store")
        both = explore_safety(
            system, k=1, cache_dir=store, journal_dir=store
        )
        assert both.complete
        with pytest.raises(ValueError, match="cache_dir"):
            explore_safety(
                system, k=1, cache_dir=store,
                journal_dir=str(tmp_path / "elsewhere"),
            )
        with pytest.raises(ValueError, match="cache_dir"):
            explore_progress_closure(
                system, m=1, cache_dir=store,
                journal_dir=str(tmp_path / "elsewhere"),
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


class TestCliIntegration:
    def test_workers_flag_matches_sequential_output(self, capsys):
        from repro.cli import main

        assert main(["explore", "--n", "2", "--m", "1", "--k", "1"]) == 0
        sequential_out = capsys.readouterr().out
        assert main(["explore", "--n", "2", "--m", "1", "--k", "1",
                     "--workers", "4"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == sequential_out

    def test_resume_flag_populates_cache_dir(self, capsys, tmp_path):
        from repro.cli import main

        cache_dir = tmp_path / "cli-cache"
        args = ["explore", "--n", "2", "--m", "1", "--k", "1",
                "--resume", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr().out
        # one store: the run's durable journal directory, no .pkl entry
        entries = sorted(p.name for p in cache_dir.iterdir())
        assert len(entries) == 1 and entries[0].endswith(".journal")
        assert main(args) == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == entries
        # the finished checkpoint answers, and the rerun says so
        assert capsys.readouterr().out == (
            f"recovery [{entries[0]}]: salvaged finished checkpoint, "
            "0 journal records\n" + first
        )

    def test_engine_failure_exits_two(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.explore.frontier import EngineFailure

        def detonate(*args, **kwargs):
            raise ExplorationEngineError(EngineFailure(
                kind="RuntimeError", detail="detonated",
                config_fingerprint="0" * 32, traceback="Traceback: detonated\n",
            ))

        monkeypatch.setattr(cli, "explore_safety", detonate)
        code = cli.main(["explore", "--n", "2", "--m", "1", "--k", "1"])
        assert code == 2
        out = capsys.readouterr().out
        assert "ENGINE FAILURE" in out and "detonated" in out

    def test_canonicalize_flag_reports_orbit_count(self, capsys):
        from repro.cli import main

        code = main(["explore", "--protocol", "anonymous-oneshot",
                     "--n", "3", "--m", "1", "--k", "1",
                     "--cluster-inputs", "1", "--canonicalize"])
        assert code == 0
        out = capsys.readouterr().out
        assert "orbit representatives" in out
