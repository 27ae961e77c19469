"""Integration: chaos campaigns exhibit the paper's reliability boundary.

Positive control — process crashes are *inside* the fault model
m-obstruction-freedom quantifies over, so crash-only campaigns must report
zero violations for every algorithm.  Negative control — register
corruption is *outside* it, and each algorithm family must produce at
least one replay-certified Validity or k-Agreement violation under the
corruption family.  Together the two controls show the fault injector
measures the model's boundary rather than its own bugs.
"""

import pytest

from repro import (
    AnonymousRepeatedSetAgreement,
    OneShotSetAgreement,
    RepeatedSetAgreement,
    System,
    replay,
)
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.bench.workloads import distinct_inputs
from repro.faults import build_family, run_campaign, run_trial
from repro.faults.inject import faulty_system
from repro.faults.plans import FaultPlan, ProcessCrash
from repro.spec import check_safety

FAMILIES = [
    ("oneshot", lambda n, m, k: System(
        OneShotSetAgreement(n=n, m=m, k=k), workloads=distinct_inputs(n))),
    ("repeated", lambda n, m, k: System(
        RepeatedSetAgreement(n=n, m=m, k=k),
        workloads=distinct_inputs(n, instances=2))),
    ("anonymous", lambda n, m, k: System(
        AnonymousRepeatedSetAgreement(n=n, m=m, k=k),
        workloads=distinct_inputs(n, instances=2))),
    ("anonymous-oneshot", lambda n, m, k: System(
        AnonymousOneShotSetAgreement(n=n, m=m, k=k),
        workloads=distinct_inputs(n))),
]


@pytest.mark.parametrize("name,factory", FAMILIES)
def test_positive_control_crash_plans_preserve_safety(name, factory):
    system = factory(4, 2, 2)
    plans = build_family("crashes", system, trials=10, seed=17)
    report = run_campaign(system, plans, family="crashes", k=2, budget=5_000)
    assert report.crash_safety_holds(), report.summary()
    assert not report.certified_violations
    # Crash-stop runs must actually conclude, not stall into inconclusive.
    assert report.outcomes("safe"), report.summary()


@pytest.mark.parametrize("name,factory", FAMILIES)
def test_negative_control_corruption_certifies_a_violation(name, factory):
    system = factory(4, 2, 2)
    plans = build_family("corruption", system, trials=8, seed=17)
    report = run_campaign(
        system, plans, family="corruption", k=2, budget=4_000, max_retries=2
    )
    violated = report.certified_violations
    assert violated, report.summary()
    for trial in violated:
        assert trial.certified
        assert trial.violations
        assert not trial.plan.crash_only


@pytest.mark.parametrize("name,factory", FAMILIES)
def test_violation_witnesses_replay_independently(name, factory):
    """The schedule stored in a violating trial re-exhibits the violation
    through a *fresh* faulty system and the independent spec checker —
    the campaign's certification is externally checkable."""
    system = factory(4, 2, 2)
    plans = build_family("corruption", system, trials=4, seed=3)
    report = run_campaign(
        system, plans, family="corruption", k=2, budget=4_000, max_retries=1
    )
    assert report.certified_violations
    for trial in report.certified_violations:
        fresh = faulty_system(system, trial.plan)
        execution = replay(fresh, trial.schedule)
        assert check_safety(execution, 2)


def test_inconclusive_trials_retry_with_backed_off_budgets():
    """A crash-only plan under a starvation-tight budget is inconclusive at
    first; the exponential backoff must raise the budget until the trial
    concludes safe."""
    system = System(
        OneShotSetAgreement(n=4, m=2, k=2), workloads=distinct_inputs(4)
    )
    plan = FaultPlan(name="slow", crashes=(ProcessCrash(3, 5),),
                     scheduler_seed=2)
    trial = run_trial(system, plan, k=2, budget=4, max_retries=6, backoff=2.0)
    assert trial.outcome == "safe"
    assert trial.attempts > 1  # the first budget really was too small


def test_inconclusive_sticks_when_budget_stays_too_small():
    system = System(
        OneShotSetAgreement(n=4, m=2, k=2), workloads=distinct_inputs(4)
    )
    plan = FaultPlan(name="slow", crashes=(ProcessCrash(3, 5),),
                     scheduler_seed=2)
    trial = run_trial(system, plan, k=2, budget=1, max_retries=1, backoff=1.0)
    assert trial.outcome == "inconclusive"
    assert trial.attempts == 2


def test_campaign_is_seed_deterministic():
    system = System(
        OneShotSetAgreement(n=3, m=1, k=1), workloads=distinct_inputs(3)
    )
    plans = build_family("corruption", system, trials=6, seed=9)
    first = run_campaign(system, plans, family="corruption", k=1,
                         budget=2_000, max_retries=1)
    second = run_campaign(system, plans, family="corruption", k=1,
                          budget=2_000, max_retries=1)
    assert [(t.plan, t.outcome, t.schedule, t.violations)
            for t in first.trials] == \
        [(t.plan, t.outcome, t.schedule, t.violations)
         for t in second.trials]


def test_finished_campaign_answers_from_its_journal(tmp_path):
    system = System(
        OneShotSetAgreement(n=3, m=1, k=1), workloads=distinct_inputs(3)
    )
    plans = build_family("crashes", system, trials=3, seed=4)
    journal_dir = str(tmp_path / "journal")
    first = run_campaign(system, plans, family="crashes", k=1,
                         budget=2_000, journal_dir=journal_dir)
    assert first.recovery is None  # a fresh journal salvages nothing
    again = run_campaign(system, plans, family="crashes", k=1,
                         budget=2_000, journal_dir=journal_dir)
    assert again.recovery.checkpoint_finished
    assert "salvaged finished checkpoint" in again.recovery.describe()
    assert [(t.plan, t.outcome) for t in again.trials] == \
        [(t.plan, t.outcome) for t in first.trials]
