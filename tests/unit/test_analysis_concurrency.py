"""The concurrency-safety pass: rules, fixtures, and the shipped tree.

Three layers of claims:

* each seeded ``conc*`` fixture trips exactly its rule, and the
  false-positive shell (``conc_known_good.py``) trips nothing;
* the shipped ``src/repro`` tree is clean under the full CLI-equivalent
  flow (determinism usage threaded into the stale-allow audit);
* the acceptance mutations — dropping the journal's flock, or the
  ``__reduce__`` from :class:`~repro.explore.packed.PackedState` — make
  the pass fail, so the analyzer genuinely guards those disciplines.
"""

import pathlib
import shutil

import pytest

from repro.analysis.callgraph import CallGraph, module_name_for
from repro.analysis.concurrency import analyze_concurrency
from repro.analysis.determinism import lint_paths

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures" / "analysis"
SRC = pathlib.Path(__file__).parent.parent.parent / "src" / "repro"


def conc_findings(name, **kwargs):
    kwargs.setdefault("all_rules", True)
    return analyze_concurrency([str(FIXTURES / name)], **kwargs).findings


# --------------------------------------------------------------------- #
# Detection: each seeded fixture trips exactly its rule
# --------------------------------------------------------------------- #

CONC_FIXTURES = [
    ("conc001_fork_global.py", "CONC001"),
    ("conc002_unpicklable.py", "CONC002"),
    ("conc003_bare_write.py", "CONC003"),
    ("conc004_busy_handler.py", "CONC004"),
    ("conc005_stale_allow.py", "CONC005"),
]


@pytest.mark.parametrize("fixture,rule", CONC_FIXTURES)
def test_seeded_fixture_trips_its_rule(fixture, rule):
    findings = conc_findings(fixture)
    assert any(f.rule == rule for f in findings), (
        f"{fixture} should trip {rule}, got {[f.rule for f in findings]}"
    )


@pytest.mark.parametrize("fixture,rule", CONC_FIXTURES)
def test_seeded_fixture_trips_only_its_rule(fixture, rule):
    findings = conc_findings(fixture)
    assert {f.rule for f in findings} == {rule}


def test_fork_global_finding_names_the_global():
    (finding,) = conc_findings("conc001_fork_global.py")
    assert "'_memo'" in finding.message
    assert "_expand" in finding.message


def test_pickle_finding_names_class_and_route():
    (finding,) = conc_findings("conc002_unpicklable.py")
    assert "Payload" in finding.message
    assert "pool submission" in finding.message


def test_busy_handler_flags_both_print_and_acquire():
    findings = conc_findings("conc004_busy_handler.py")
    problems = " / ".join(f.message for f in findings)
    assert "print" in problems
    assert "acquires a lock" in problems


def test_stale_allow_distinguishes_unknown_from_unused():
    findings = conc_findings("conc005_stale_allow.py")
    messages = sorted(f.message for f in findings)
    assert len(messages) == 2
    assert any("suppresses nothing" in m for m in messages)
    assert any("unknown or retired rule" in m for m in messages)
    assert all(f.severity == "note" for f in findings)


# --------------------------------------------------------------------- #
# Non-detection: the false-positive shells stay silent
# --------------------------------------------------------------------- #

def test_known_good_shells_are_clean():
    assert conc_findings("conc_known_good.py") == []


def test_justified_allow_is_consumed_not_stale():
    # conc_known_good.py carries a real CONC003 silenced by an allow; the
    # audit (which runs in the same call) must count it as used.
    findings = conc_findings("conc_known_good.py")
    assert not any(f.rule == "CONC005" for f in findings)


def test_determinism_usage_threads_into_the_audit():
    # suppressed.py's allows are consumed by the *determinism* pass; with
    # its usage threaded through, the audit must not call them stale.
    usage = {}
    lint_paths([str(FIXTURES / "suppressed.py")], all_rules=True, usage=usage)
    report = analyze_concurrency(
        [str(FIXTURES / "suppressed.py")], all_rules=True, usage=usage
    )
    assert report.findings == []


# --------------------------------------------------------------------- #
# The shipped tree: clean end to end (the CI gate's claim)
# --------------------------------------------------------------------- #

def test_shipped_tree_is_clean():
    usage = {}
    det = lint_paths([str(SRC)], usage=usage)
    conc = analyze_concurrency([str(SRC)], usage=usage)
    assert det.findings == []
    assert conc.findings == []
    assert conc.files_scanned > 50


# --------------------------------------------------------------------- #
# Entry-point discovery over the real tree
# --------------------------------------------------------------------- #

def test_call_graph_discovers_the_real_entry_points():
    import ast

    files = sorted(SRC.rglob("*.py"))
    graph = CallGraph.build([
        (p.as_posix(), ast.parse(p.read_text())) for p in files
    ])
    from repro.analysis.concurrency import _discover_entry_points

    entries = _discover_entry_points(graph)
    assert "repro.explore.frontier::_expand_chunk" in entries.pool_roots
    assert "repro.explore.frontier::_set_worker" in entries.pool_roots
    assert "repro.serve.supervisor::execute_job" in entries.pool_roots
    assert "repro.durable.pool::init_worker" in entries.pool_roots
    assert any("_handler" in key for key in entries.signal_roots)

    # Reachability: the worker entry reaches the per-item expansion, and
    # the serve executor reaches the explore engine (its dispatch table).
    reach = graph.reachable(entries.pool_roots)
    assert "repro.explore.frontier::_expand_one" in reach
    assert "repro.serve.supervisor::_execute_explore" in reach


def test_module_name_for_handles_src_and_fixture_paths():
    assert module_name_for("src/repro/explore/frontier.py") == \
        "repro.explore.frontier"
    assert module_name_for("src/repro/explore/__init__.py") == "repro.explore"
    assert module_name_for(
        "tests/fixtures/analysis/conc001_fork_global.py"
    ) == "conc001_fork_global"


# --------------------------------------------------------------------- #
# Acceptance mutations: the analyzer guards the real disciplines
# --------------------------------------------------------------------- #

def _mutated_tree(tmp_path, mutate):
    dst = tmp_path / "repro"
    shutil.copytree(SRC, dst)
    mutate(dst)
    return analyze_concurrency([str(dst)])


def test_unmutated_copy_is_error_free(tmp_path):
    report = _mutated_tree(tmp_path, lambda dst: None)
    assert [f for f in report.findings if f.severity == "error"] == []


def test_removing_the_journal_flock_fails_the_pass(tmp_path):
    def drop_flock(dst):
        journal = dst / "durable" / "journal.py"
        source = journal.read_text()
        mutated = source.replace("_lock_or_raise(handle, self.path)",
                                 "pass", 1)
        assert mutated != source
        journal.write_text(mutated)

    report = _mutated_tree(tmp_path, drop_flock)
    errors = [f for f in report.findings if f.severity == "error"]
    assert {f.rule for f in errors} == {"CONC003"}
    assert any("journal.py" in f.file for f in errors)


def test_removing_packedstate_reduce_fails_the_pass(tmp_path):
    def drop_reduce(dst):
        packed = dst / "explore" / "packed.py"
        source = packed.read_text()
        mutated = source.replace(
            "    def __reduce__(self):\n",
            "    def _disabled_reduce(self):\n",
            1,
        )
        assert mutated != source
        packed.write_text(mutated)

    report = _mutated_tree(tmp_path, drop_reduce)
    errors = [f for f in report.findings if f.severity == "error"]
    assert {f.rule for f in errors} == {"CONC002"}
    assert any("PackedState" in f.message for f in errors)
