"""Symmetry reduction: gating, idempotence, and orbit invariance."""

from repro import AnonymousRepeatedSetAgreement, OneShotSetAgreement, System
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.explore import canonicalize, config_fingerprint, symmetry_classes
from repro.explore.packed import PackedCodec
from repro.objects import implemented_snapshot_layout
from repro.runtime.system import Configuration


def anon_system(workloads):
    return System(
        AnonymousOneShotSetAgreement(n=len(workloads), m=1, k=1),
        workloads=workloads,
    )


def permute_procs(config, perm):
    """The configuration with process p's record moved to position perm[p]."""
    procs = list(config.procs)
    out = list(procs)
    for pid, target in enumerate(perm):
        out[target] = procs[pid]
    return Configuration(procs=tuple(out), memory=config.memory)


class TestGating:
    def test_non_anonymous_protocol_has_no_classes(self):
        system = System(
            OneShotSetAgreement(n=2, m=1, k=1), workloads=[["a"], ["a"]]
        )
        assert symmetry_classes(system) is None

    def test_distinct_workloads_have_no_classes(self):
        system = anon_system([["a"], ["b"], ["c"]])
        assert symmetry_classes(system) is None

    def test_implemented_layout_disables_reduction(self):
        """Register-level substrates key behaviour on pid — no quotient."""
        protocol = AnonymousRepeatedSetAgreement(n=3, m=1, k=1)
        layout = implemented_snapshot_layout(protocol, "anonymous-double-collect")
        system = System(
            protocol, workloads=[["a"], ["a"], ["a"]], layout=layout
        )
        assert symmetry_classes(system) is None

    def test_dynamic_workloads_have_no_classes(self):
        system = System(
            AnonymousOneShotSetAgreement(n=2, m=1, k=1),
            n=2,
            workload_fn=lambda pid, invocation, outputs: (
                "a" if invocation == 1 else None
            ),
        )
        assert symmetry_classes(system) is None

    def test_symmetric_anonymous_system_has_classes(self):
        system = anon_system([["a"], ["b"], ["a"]])
        classes = symmetry_classes(system)
        assert classes == ((0, 2),)

    def test_all_equal_workloads_one_class(self):
        system = anon_system([["a"], ["a"], ["a"]])
        assert symmetry_classes(system) == ((0, 1, 2),)


class TestCanonicalForm:
    def test_idempotent(self):
        system = anon_system([["a"], ["a"], ["a"]])
        classes = symmetry_classes(system)
        config = system.initial_configuration()
        for pid in (0, 1, 0, 2, 1):
            config = system.step(config, pid).config
        once = canonicalize(config, classes)
        twice = canonicalize(once, classes)
        assert once == twice

    def test_orbit_members_share_fingerprint(self):
        system = anon_system([["a"], ["a"], ["a"]])
        classes = symmetry_classes(system)
        config = system.initial_configuration()
        for pid in (0, 0, 1, 0, 2):
            config = system.step(config, pid).config
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1)]:
            mirrored = permute_procs(config, perm)
            assert config_fingerprint(PackedCodec(), mirrored, classes) == \
                config_fingerprint(PackedCodec(), config, classes)

    def test_permutations_respect_class_boundaries(self):
        """Only same-workload processes may swap: cross-class stays put."""
        system = anon_system([["a"], ["b"], ["a"]])
        classes = symmetry_classes(system)
        config = system.initial_configuration()
        for pid in (1, 1, 1):  # advance only the singleton-class process
            config = system.step(config, pid).config
        canon = canonicalize(config, classes)
        assert canon.procs[1] == config.procs[1]

    def test_memory_is_untouched(self):
        system = anon_system([["a"], ["a"]])
        classes = symmetry_classes(system)
        config = system.initial_configuration()
        for pid in (0, 0, 1, 0):
            config = system.step(config, pid).config
        assert canonicalize(config, classes).memory == config.memory


class TestExplorationEquivalence:
    def test_canonicalized_explore_same_verdict_fewer_states(self):
        # All-equal inputs give the maximal orbit and a fast complete
        # exploration.  No test covers mixed-workload instances; the >= 2x
        # dedup bound on larger all-equal instances is pinned by
        # tests/integration/test_parallel_explore.py::TestSymmetryDedup.
        from repro.explore import explore_safety

        system = anon_system([["a"], ["a"], ["a"]])
        plain = explore_safety(system, k=1)
        canon = explore_safety(system, k=1, canonicalize=True)
        assert plain.complete and canon.complete
        assert plain.ok == canon.ok
        assert canon.configs_discovered < plain.configs_discovered

    def test_canonicalize_flag_inert_without_symmetry(self):
        from repro.explore import explore_safety

        system = anon_system([["a"], ["b"]])
        plain = explore_safety(system, k=1)
        canon = explore_safety(system, k=1, canonicalize=True)
        assert canon.configs_explored == plain.configs_explored
        assert canon.configs_discovered == plain.configs_discovered
