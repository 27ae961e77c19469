"""Unit tests for the benchmark harness utilities."""

import pytest

from repro import OneShotSetAgreement
from repro.bench.sweep import SweepRow, bounded_adversary_run, sweep_protocol
from repro.bench.tables import format_table
from repro.bench.workloads import (
    adversarial_inputs,
    clustered_inputs,
    distinct_inputs,
)
from repro.runtime.system import System


class TestWorkloads:
    def test_distinct_inputs_globally_unique(self):
        workloads = distinct_inputs(4, instances=3)
        flat = [v for w in workloads for v in w]
        assert len(flat) == len(set(flat)) == 12

    def test_clustered_inputs_cluster_count(self):
        workloads = clustered_inputs(6, clusters=2, instances=2)
        for t in range(2):
            values = {w[t] for w in workloads}
            assert len(values) == 2

    def test_clustered_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            clustered_inputs(4, clusters=0)

    def test_adversarial_inputs_one_dissenter_per_instance(self):
        workloads = adversarial_inputs(5, instances=3)
        for t in range(3):
            values = [w[t] for w in workloads]
            dissenters = [v for v in values if "dissent" in v]
            assert len(dissenters) == 1

    def test_adversarial_dissenter_rotates(self):
        workloads = adversarial_inputs(3, instances=3)
        dissenter_positions = [
            next(i for i, w in enumerate(workloads) if "dissent" in w[t])
            for t in range(3)
        ]
        assert dissenter_positions == [0, 1, 2]


class TestSweep:
    def test_rows_cover_grid(self):
        rows = sweep_protocol(
            lambda n, m, k: OneShotSetAgreement(n=n, m=m, k=k),
            [(3, 1, 1), (4, 1, 2)],
            seeds=(1,),
        )
        assert [(r.n, r.m, r.k) for r in rows] == [(3, 1, 1), (4, 1, 2)]
        assert all(isinstance(r, SweepRow) for r in rows)

    def test_distinct_outputs_never_exceed_k(self):
        rows = sweep_protocol(
            lambda n, m, k: OneShotSetAgreement(n=n, m=m, k=k),
            [(4, 2, 3)],
            seeds=(1, 2),
        )
        assert rows[0].distinct_outputs <= 3

    def test_bounded_adversary_run_completes_survivors(self):
        system = System(OneShotSetAgreement(n=3, m=1, k=1),
                        workloads=distinct_inputs(3))
        execution = bounded_adversary_run(system, survivors=[1], seed=2)
        assert system.decided_all(execution.config, [1])


class TestTables:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [("a", 1), ("longer", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(line) for line in lines[1:])) == 1  # aligned

    def test_float_formatting(self):
        text = format_table(["x"], [(1.23456,)])
        assert "1.2" in text and "1.23456" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

