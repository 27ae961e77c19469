"""Unit tests for the Figure 4 repeated algorithm."""

import pytest

from repro import (
    RandomScheduler,
    RepeatedSetAgreement,
    System,
    replay,
    run,
    run_solo,
)
from repro._types import BOT
from repro.agreement.repeated import (
    DECIDED,
    SCAN,
    UPDATE,
    RepeatedPersistent,
    RepeatedState,
    effectively_bot,
    first_duplicate_t_tuple,
    is_instance_tuple,
)
from repro.bench.workloads import distinct_inputs
from repro.runtime.automaton import Context, Decide
from repro.sched import EventuallyBoundedScheduler
from repro.spec import assert_execution_safe
from repro.spec.properties import check_k_agreement


def make(n=3, m=1, k=1, components=None):
    return RepeatedSetAgreement(n=n, m=m, k=k, components=components)


def ctx_for(protocol, pid=0):
    return Context(pid=pid, n=protocol.n, params=protocol.params)


def entry(value, pid, t, history=()):
    return (value, pid, t, tuple(history))


class TestHelpers:
    def test_is_instance_tuple(self):
        assert is_instance_tuple(entry("v", 0, 3), 3)
        assert not is_instance_tuple(entry("v", 0, 2), 3)
        assert not is_instance_tuple(BOT, 3)

    def test_effectively_bot(self):
        assert effectively_bot(BOT, 2)
        assert effectively_bot(entry("v", 0, 1), 2)  # lower instance = ⊥
        assert not effectively_bot(entry("v", 0, 2), 2)
        assert not effectively_bot(entry("v", 0, 3), 2)

    def test_first_duplicate_only_matches_instance(self):
        scan = (entry("v", 0, 1), entry("v", 0, 1), entry("w", 1, 2),
                entry("w", 1, 2))
        assert first_duplicate_t_tuple(scan, 2) == 2
        assert first_duplicate_t_tuple(scan, 1) == 0
        assert first_duplicate_t_tuple(scan, 3) is None


class TestLifecycle:
    def test_persistent_initial(self):
        protocol = make()
        persistent = protocol.initial_persistent(ctx_for(protocol))
        assert persistent == RepeatedPersistent(i=0, t=0, history=())

    def test_begin_increments_instance(self):
        protocol = make()
        (state,) = protocol.begin(
            ctx_for(protocol), RepeatedPersistent(i=2, t=3, history=("a", "b", "c")),
            "v", 4
        )
        assert state.t == 4
        assert state.i == 2  # location persists across invocations

    def test_local_shortcut_lines_9_10(self):
        """history already covers this instance -> immediate decision, no
        memory operations."""
        protocol = make()
        persistent = RepeatedPersistent(i=1, t=1, history=("x", "y"))
        (state,) = protocol.begin(ctx_for(protocol), persistent, "v", 2)
        assert state.phase == DECIDED
        action = protocol.pending(ctx_for(protocol), 0, state)
        assert isinstance(action, Decide) and action.output == "y"

    def test_decide_persists_location_and_history(self):
        protocol = make()
        state = RepeatedState(pref="v", i=2, t=1, history=("v",),
                              phase=DECIDED, decision="v")
        action = protocol.pending(ctx_for(protocol), 0, state)
        assert action.persistent == RepeatedPersistent(i=2, t=1, history=("v",))


class TestScanRules:
    def test_higher_instance_adoption_lines_15_16(self):
        protocol = make()
        state = RepeatedState(pref="v", i=0, t=1, history=(), phase=SCAN)
        scan = (entry("w", 1, 3, ("a", "b")), BOT, BOT)
        new = protocol.apply(ctx_for(protocol), 0, state, scan)
        assert new.phase == DECIDED
        assert new.decision == "a"  # t-th (=1st) value of the history
        assert new.history == ("a", "b")

    def test_decide_lines_17_21(self):
        protocol = make(n=3, m=1, k=1)  # r = 4
        state = RepeatedState(pref="v", i=0, t=2, history=("a",), phase=SCAN)
        scan = (entry("w", 1, 2, ("a",)),) * 4
        new = protocol.apply(ctx_for(protocol), 0, state, scan)
        assert new.phase == DECIDED
        assert new.decision == "w"
        assert new.history == ("a", "w")

    def test_lower_instance_blocks_decision(self):
        protocol = make(n=3, m=1, k=1)
        state = RepeatedState(pref="v", i=0, t=2, history=("a",), phase=SCAN)
        scan = (entry("w", 1, 2), entry("w", 1, 2), entry("w", 1, 2),
                entry("old", 2, 1))
        new = protocol.apply(ctx_for(protocol), 0, state, scan)
        assert new.phase != DECIDED

    def test_adopt_lines_22_24(self):
        protocol = make(n=3, m=1, k=1)
        ctx = ctx_for(protocol, pid=0)
        state = RepeatedState(pref="v", i=3, t=1, history=(), phase=SCAN)
        scan = (entry("w", 1, 1), entry("w", 1, 1), entry("x", 2, 1),
                entry("v", 0, 1))
        new = protocol.apply(ctx, 0, state, scan)
        assert new.pref == "w" and new.i == 3

    def test_lower_instance_entry_treated_as_bot_blocks_adoption(self):
        protocol = make(n=3, m=1, k=1)
        ctx = ctx_for(protocol, pid=0)
        state = RepeatedState(pref="v", i=3, t=2, history=("h",), phase=SCAN)
        scan = (entry("w", 1, 2), entry("w", 1, 2), entry("stale", 2, 1),
                entry("v", 0, 2, ("h",)))
        new = protocol.apply(ctx, 0, state, scan)
        # position 2 is effectively ⊥ -> adoption blocked -> advance.
        assert new.pref == "v" and new.i == 0  # (3+1) mod 4

    def test_self_valued_duplicate_advances(self):
        protocol = make(n=3, m=1, k=1)
        ctx = ctx_for(protocol, pid=0)
        state = RepeatedState(pref="v", i=3, t=1, history=(), phase=SCAN)
        scan = (entry("v", 1, 1), entry("v", 1, 1), entry("x", 2, 1),
                entry("v", 0, 1))
        new = protocol.apply(ctx, 0, state, scan)
        assert new.pref == "v" and new.i == 0


class TestEndToEnd:
    def test_solo_runs_all_instances_and_keeps_history(self):
        system = System(make(), workloads=[["a1", "a2", "a3"], ["b1"], ["c1"]])
        execution = run_solo(system, 0)
        assert execution.config.procs[0].outputs == ("a1", "a2", "a3")
        assert execution.config.procs[0].persistent.history == ("a1", "a2", "a3")

    def test_laggard_adopts_history_wholesale(self):
        system = System(
            make(), workloads=[[f"a{t}" for t in range(3)],
                               [f"b{t}" for t in range(3)], ["c0"]]
        )
        lead = run_solo(system, 0)
        follow = run_solo(system, 1, initial=lead.config)
        assert follow.config.procs[1].outputs == lead.config.procs[0].outputs

    def test_consensus_across_instances_under_adversary(self):
        for seed in (3, 4):
            system = System(
                make(n=3, m=1, k=1),
                workloads=[[f"p{i}c{t}" for t in range(3)] for i in range(3)],
            )
            scheduler = EventuallyBoundedScheduler(
                survivors=[2], prelude_steps=70, prelude=RandomScheduler(seed=seed)
            )
            execution = run(system, scheduler, max_steps=100_000)
            assert_execution_safe(execution, k=1)
            for t in (1, 2, 3):
                assert len(set(execution.instance_outputs(t))) <= 1

    def test_m2_survivors_all_finish(self):
        system = System(
            make(n=4, m=2, k=2),
            workloads=[[f"p{i}c{t}" for t in range(2)] for i in range(4)],
        )
        scheduler = EventuallyBoundedScheduler(
            survivors=[0, 3], prelude_steps=90, prelude=RandomScheduler(seed=8)
        )
        execution = run(system, scheduler, max_steps=200_000)
        assert_execution_safe(execution, k=2)
        assert system.decided_all(execution.config, [0, 3])


#: A 52-step schedule at n=3, m=1, k=1 with 2 instances: p0, still in
#: instance 1, lands a stale covering write after p2 decided instance 2;
#: p1 treats that entry as bottom, advances instead of adopting, and p0
#: then decides a second value.
LAGGARD_SCHEDULE = [
    0, 2, 2, 2, 1, 0, 2, 2, 2, 2, 2, 0, 1, 0, 0, 1, 0, 2, 2, 2, 2, 2, 1, 2,
    2, 0, 2, 2, 2, 1, 2, 2, 1, 2, 2, 2, 0, 2, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1,
    1, 1, 0, 0,
]


class TestKAgreementWitnesses:
    """Known k-agreement violations of Figure 4 as implemented, pinned as
    deterministic runs.  Each is a strict xfail: the fix must flip it."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_laggard_write_after_decision_replay(self):
        system = System(make(n=3, m=1, k=1),
                        workloads=distinct_inputs(3, instances=2))
        execution = replay(system, LAGGARD_SCHEDULE)
        assert not check_k_agreement(execution, k=1)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_random_seed_2476_three_instances(self):
        system = System(make(n=3, m=1, k=1),
                        workloads=distinct_inputs(3, instances=3))
        execution = run(system, RandomScheduler(seed=2476), max_steps=155,
                        on_limit="return")
        assert not check_k_agreement(execution, k=1)
