"""Hypothesis: invertibility and canonicality of the packed codec.

Two load-bearing properties back every packed-carrier claim (see
``repro.explore.packed``): ``decode(encode(v)) == v`` exactly, and
bytes are a pure function of the *value* — independent of object
identity, container insertion order, and memo state.  Both are checked
over randomized vocabulary values and over real reachable
configurations of all four algorithm families on the paper's
1 ≤ m ≤ k < n grid.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OneShotSetAgreement, RepeatedSetAgreement, System
from repro._types import BOT, Params
from repro.agreement.anonymous import (
    AnonymousOneShotSetAgreement,
    AnonymousRepeatedSetAgreement,
)
from repro.bench.workloads import distinct_inputs
from repro.errors import NotEnabledError
from repro.explore import canonicalize, symmetry_classes
from repro.explore.packed import PackedCodec, PackedState, config_fingerprint
from repro.runtime.system import stable_fingerprint

leaves = st.one_of(
    st.none(),
    st.just(BOT),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)

#: Hashable values, usable as set elements and dict keys.
hashable_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)

#: The full codec vocabulary (minus dataclasses, covered by the grid).
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.frozensets(hashable_values, max_size=3),
        st.sets(hashable_values, max_size=3),
        st.dictionaries(hashable_values, inner, max_size=3),
        st.dictionaries(
            st.text(min_size=1, max_size=6), inner, max_size=3
        ).map(Params),  # positional mapping — `**d` chokes on a "self" key
    ),
    max_leaves=12,
)


class TestCodecProperties:
    @given(values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, value):
        codec = PackedCodec()
        back = codec.decode_value(codec.encode_value(value))
        assert back == value
        assert type(back) is type(value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_bytes_are_a_pure_function_of_the_value(self, value):
        warm = PackedCodec()
        blob = warm.encode_value(value)
        # Same codec, same object: memo hits must not change the bytes.
        assert warm.encode_value(value) == blob
        # Fresh codec, structurally equal but distinct objects: identity
        # (and hence memo keys) must not leak into the encoding.
        assert PackedCodec().encode_value(copy.deepcopy(value)) == blob


# --------------------------------------------------------------------- #
# Real configurations: all four families on the 1 <= m <= k < n grid.
# --------------------------------------------------------------------- #

GRID = [(n, m, k) for n in (2, 3, 4) for m in range(1, n)
        for k in range(m, n) if m <= k]


def family_systems(n, m, k):
    yield System(OneShotSetAgreement(n=n, m=m, k=k),
                 workloads=distinct_inputs(n))
    yield System(RepeatedSetAgreement(n=n, m=m, k=k),
                 workloads=distinct_inputs(n, instances=2))
    yield System(AnonymousOneShotSetAgreement(n=n, m=m, k=k),
                 workloads=[["v"]] * n)
    yield System(AnonymousRepeatedSetAgreement(n=n, m=m, k=k),
                 workloads=[["v1", "v2"]] * n)


def reachable_configs(system, limit=25):
    configs = [system.initial_configuration()]
    frontier = list(configs)
    while frontier and len(configs) < limit:
        config = frontier.pop(0)
        for pid in range(len(config.procs)):
            try:
                step = system.step(config, pid)
            except NotEnabledError:
                continue
            if step is not None:
                configs.append(step.config)
                frontier.append(step.config)
    return configs[:limit]


def same_partition(keys_a, keys_b):
    """Whether two keyings split the same items into the same classes."""
    return len(set(keys_a)) == len(set(zip(keys_a, keys_b))) == len(set(keys_b))


@pytest.mark.parametrize("point", GRID, ids=lambda p: "n%d-m%d-k%d" % p)
def test_grid_round_trip_and_backend_fingerprint_parity(point):
    """The engine's packed keys separate configurations exactly as the
    independent ``stable_fingerprint`` walk does (the keying the retired
    legacy engine used), with and without orbit canonicalization.

    A codec that has just decoded a configuration (as a pool worker
    does, seeding its memos from the blob) keys every successor of the
    decoded copy exactly as a fresh codec keys the original's."""
    codec = PackedCodec()
    for system in family_systems(*point):
        classes = symmetry_classes(system)
        configs = reachable_configs(system)
        worker = PackedCodec()
        for config in configs:
            blob = codec.encode(config)
            assert codec.decode(blob) == config
            decoded = worker.decode(blob)
            for pid in system.enabled_pids(config):
                want = system.step(config, pid).config
                got = system.step(decoded, pid).config
                assert worker.encode(got) == PackedCodec().encode(want)
                if classes is not None:
                    assert config_fingerprint(worker, got, classes) == \
                        config_fingerprint(PackedCodec(), want, classes)
        packed = [config_fingerprint(codec, c)[0] for c in configs]
        walked = [stable_fingerprint(c) for c in configs]
        assert same_partition(packed, walked)
        if classes is not None:
            packed = [config_fingerprint(codec, c, classes)[0] for c in configs]
            walked = [stable_fingerprint(canonicalize(c, classes))
                      for c in configs]
            assert same_partition(packed, walked)


@pytest.mark.parametrize("point", GRID, ids=lambda p: "n%d-m%d-k%d" % p)
def test_grid_carriers_survive_the_pool_boundary(point):
    """Every carrier form pickles to one that joins to the codec's bytes
    and decodes to the configuration: bytes-only (read from a
    checkpoint), decoded (a worker's successor, shipped as fragments)
    and fragments (the coordinator forwarding what a worker sent).

    A codec that has just decoded shipped fragments — its own, from the
    intern table, or another codec's — encodes and fingerprints every
    successor exactly as a fresh codec does, with and without orbit
    canonicalization."""
    for system in family_systems(*point):
        orbits = symmetry_classes(system)
        for classes in (None,) if orbits is None else (None, orbits):
            shipper, worker = PackedCodec(), PackedCodec()
            for config in reachable_configs(system):
                # The fingerprint comes first, as in a worker: with
                # classes the memos then hold the representative's parts.
                config_fingerprint(shipper, config, classes)
                blob = PackedCodec().encode(config)
                decoded = PackedState(config=config, codec=shipper)
                fragments = pickle.loads(pickle.dumps(decoded))
                for carrier in (PackedState(blob), decoded, fragments):
                    clone = pickle.loads(pickle.dumps(carrier))
                    assert clone.data == blob
                    assert clone.configuration(PackedCodec()) == config
                for codec in (shipper, worker):
                    parts = pickle.loads(pickle.dumps(fragments._data))
                    got = codec.decode(parts)
                    assert got == config
                    for pid in system.enabled_pids(config):
                        want = system.step(config, pid).config
                        succ = system.step(got, pid).config
                        assert codec.encode(succ) == PackedCodec().encode(want)
                        assert config_fingerprint(codec, succ, classes) == \
                            config_fingerprint(PackedCodec(), want, classes)
