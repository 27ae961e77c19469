"""Unit tests for the packed configuration codec and its fingerprints.

The codec's contract (see ``repro.explore.packed``): canonical —
equal values encode to identical bytes regardless of construction
order or memo state; invertible — ``decode(encode(v)) == v`` with no
lossy fallback; and strict — values outside the vocabulary, corrupt
framing, and truncation all raise :class:`PackedCodecError` rather
than round-tripping garbage.
"""

import dataclasses
import math
import pickle

import pytest

from repro import OneShotSetAgreement, System
from repro._types import BOT, Params
from repro.explore import symmetry_classes
from repro.explore.packed import (
    MAGIC,
    PackedCodec,
    PackedCodecError,
    PackedState,
    config_fingerprint,
    join_fragments,
    packed_fingerprint,
)


@dataclasses.dataclass(frozen=True)
class _Point:
    """A generic (non-skeleton) frozen dataclass for codec tests."""

    x: int
    y: object


VOCABULARY = [
    None,
    BOT,
    True,
    False,
    0,
    -1,
    63,
    64,
    -64,
    12_345_678_901_234_567_890,
    -(1 << 200),
    0.0,
    -0.0,
    1.5,
    float("inf"),
    float("-inf"),
    "",
    "héllo wörld ✓",
    b"",
    b"\x00\xff\x80",
    (),
    (1, (2, ("deep", BOT))),
    [1, [2, []]],
    frozenset(),
    frozenset({1, "a", (2, 3)}),
    {7, 8, 9},
    {},
    {"k": 1, 5: None, ("t",): [BOT]},
    Params(),
    Params(alpha=1, beta=("b", 2)),
    _Point(1, "y"),
    _Point(2, _Point(3, (BOT,))),
]


def make_system():
    return System(OneShotSetAgreement(n=3, m=1, k=2),
                  workloads=[["a"], ["b"], ["c"]])


def bfs_configs(system, limit):
    """First *limit* configurations of the system's reachable graph."""
    from repro.errors import NotEnabledError

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


class TestRoundTrip:
    @pytest.mark.parametrize("value", VOCABULARY, ids=repr)
    def test_vocabulary_value(self, value):
        codec = PackedCodec()
        blob = codec.encode_value(value)
        back = codec.decode_value(blob)
        assert back == value
        assert type(back) is type(value)

    def test_nan_round_trips_bitwise(self):
        codec = PackedCodec()
        back = codec.decode_value(codec.encode_value(float("nan")))
        assert math.isnan(back)

    def test_negative_zero_sign_preserved(self):
        codec = PackedCodec()
        back = codec.decode_value(codec.encode_value(-0.0))
        assert math.copysign(1.0, back) == -1.0

    def test_configurations_round_trip(self):
        codec = PackedCodec()
        for config in bfs_configs(make_system(), 150):
            assert codec.decode(codec.encode(config)) == config

    def test_decode_rejects_non_configuration_blob(self):
        codec = PackedCodec()
        with pytest.raises(PackedCodecError, match="not Configuration"):
            codec.decode(codec.encode_value(42))


class TestCanonicalBytes:
    def test_set_and_dict_order_independent(self):
        codec = PackedCodec()
        assert codec.encode_value(frozenset([1, 2, 3])) == codec.encode_value(
            frozenset([3, 1, 2])
        )
        assert codec.encode_value({"a": 1, "b": 2}) == codec.encode_value(
            dict([("b", 2), ("a", 1)])
        )

    def test_warm_memos_do_not_change_bytes(self):
        warm = PackedCodec()
        config = bfs_configs(make_system(), 40)[-1]
        for _ in range(3):
            warm_blob = warm.encode(config)
        assert warm_blob == PackedCodec().encode(config)

    def test_distinct_container_types_encode_distinctly(self):
        codec = PackedCodec()
        blobs = {
            codec.encode_value(value)
            for value in [(1, 2), [1, 2], frozenset({1, 2}), {1, 2}, {1: 2}]
        }
        assert len(blobs) == 5

    def test_memo_limit_overflow_is_semantically_inert(self):
        tiny = PackedCodec(memo_limit=2)
        system = make_system()
        configs = bfs_configs(system, 30)
        expected = [PackedCodec().encode(c) for c in configs]
        assert [tiny.encode(c) for c in configs] == expected
        # Decoding seeds the process and bank memos; with overflow the
        # seeds are cleared mid-configuration and the bytes still hold.
        seeded = PackedCodec(memo_limit=2)
        for config, blob in zip(configs, expected):
            decoded = seeded.decode(blob)
            assert seeded.encode(decoded) == blob
            for pid in system.enabled_pids(decoded):
                assert seeded.encode(system.step(decoded, pid).config) == \
                    PackedCodec().encode(system.step(config, pid).config)
        # Shipping and decoding fragments fill the intern table, which
        # clears at the same limit without changing a byte either.
        interned = PackedCodec(memo_limit=2)
        for config, blob in zip(configs, expected):
            parts = pickle.loads(pickle.dumps(interned.fragments(config)))
            assert len(interned._intern) <= 2
            decoded = interned.decode(parts)
            assert len(interned._intern) <= 2
            assert decoded == config and interned.encode(decoded) == blob
            for pid in system.enabled_pids(decoded):
                assert interned.encode(system.step(decoded, pid).config) == \
                    PackedCodec().encode(system.step(config, pid).config)

    def test_decode_seeds_process_and_bank_memos(self):
        for config in bfs_configs(make_system(), 40):
            blob = PackedCodec().encode(config)
            codec = PackedCodec()
            decoded = codec.decode(blob)
            fresh = PackedCodec()
            # Tag, class index, and the process count (one LEB128 byte).
            pos = len(MAGIC) + 3
            for proc in decoded.procs:
                frag = fresh.proc_frag(proc)
                assert blob[pos:pos + len(frag)] == frag
                cached, seed = codec._proc_memo[id(proc)]
                assert cached is proc and seed == frag
                pos += len(frag)
            pos += 1  # the bank count
            for bank in decoded.memory:
                frag = fresh.encode_value(bank)[len(MAGIC):]
                assert blob[pos:pos + len(frag)] == frag
                cached, seed = codec._bank_memo[id(bank)]
                assert cached is bank and seed == frag
                pos += len(frag)
            assert pos == len(blob)

    def test_banks_are_stored_in_the_bank_memo_only(self):
        codec = PackedCodec()
        for config in bfs_configs(make_system(), 40):
            codec.encode(config)
            for bank in config.memory:
                assert codec._bank_memo[id(bank)][0] is bank
                assert id(bank) not in codec._node_memo

    def test_subclasses_encode_as_their_vocabulary_base(self):
        import enum
        from typing import NamedTuple

        class Level(enum.IntEnum):
            HIGH = 70

        class Name(str):
            pass

        class Pair(NamedTuple):
            left: object
            right: object

        codec = PackedCodec()
        for value, base in [(Level.HIGH, 70), (Name("ab"), "ab"),
                            (Pair(1, None), (1, None)),
                            (frozenset({Name("x")}), frozenset({"x"}))]:
            assert codec.encode_value(value) == \
                PackedCodec().encode_value(base)


class TestStrictness:
    @pytest.mark.parametrize("value", [object(), complex(1, 2), range(3)],
                             ids=type)
    def test_out_of_vocabulary_raises(self, value):
        with pytest.raises(PackedCodecError, match="cannot pack"):
            PackedCodec().encode_value(value)

    def test_bad_magic_raises(self):
        with pytest.raises(PackedCodecError, match="magic"):
            PackedCodec().decode_value(b"XX1N")

    def test_truncation_raises(self):
        codec = PackedCodec()
        blob = codec.encode_value((1, "abcdef", (2.5, BOT)))
        for cut in range(len(MAGIC), len(blob)):
            with pytest.raises(PackedCodecError):
                codec.decode_value(blob[:cut])

    def test_trailing_bytes_raise(self):
        codec = PackedCodec()
        with pytest.raises(PackedCodecError, match="trailing"):
            codec.decode_value(codec.encode_value(1) + b"\x00")

    def test_unknown_tag_raises(self):
        with pytest.raises(PackedCodecError):
            PackedCodec().decode_value(MAGIC + b"\xfe")

    def test_pickled_codec_drops_memos(self):
        codec = PackedCodec(memo_limit=17)
        config = bfs_configs(make_system(), 5)[-1]
        blob = codec.encode(config)
        clone = pickle.loads(pickle.dumps(codec))
        assert clone._proc_memo == {}
        assert clone._memo_limit == 17
        assert clone.encode(config) == blob


class TestPackedState:
    def test_lazy_encode_matches_codec(self):
        codec = PackedCodec()
        config = make_system().initial_configuration()
        carrier = PackedState(config=config, codec=codec)
        assert carrier.data == codec.encode(config)
        assert carrier.configuration(codec) is config

    def test_lazy_decode_happens_once(self):
        codec = PackedCodec()
        config = make_system().initial_configuration()
        carrier = PackedState(codec.encode(config))
        first = carrier.configuration(codec)
        assert first == config
        assert carrier.configuration(codec) is first

    def test_pickle_ships_bytes_only(self):
        codec = PackedCodec()
        config = bfs_configs(make_system(), 20)[-1]
        blob = codec.encode(config)
        # A decoded carrier ships its fragments; so does the clone, and
        # a bytes-only carrier ships its bytes.
        carrier = PackedState(config=config, codec=codec)
        clone = pickle.loads(pickle.dumps(carrier))
        again = pickle.loads(pickle.dumps(clone))
        for shipped in (clone, again):
            assert shipped._config is None and shipped._codec is None
            assert type(shipped._data) is tuple
            assert all(type(frag) is bytes for frag in shipped._data[1:])
            assert shipped.data == blob
            assert shipped.configuration(PackedCodec()) == config
        plain = pickle.loads(pickle.dumps(PackedState(blob)))
        assert plain._data == blob and plain._config is None
        assert plain.configuration(PackedCodec()) == config

    def test_siblings_share_unchanged_fragments_after_unpickling(self):
        system = make_system()
        codec = PackedCodec()
        parent = bfs_configs(system, 20)[-1]
        pids = system.enabled_pids(parent)
        assert len(pids) >= 2
        children = [system.step(parent, pid).config for pid in pids]
        shipped = pickle.loads(pickle.dumps(
            [PackedState(config=child, codec=codec) for child in children]
        ))
        first, second = children[0], children[1]
        shared = [i for i, (a, b) in enumerate(zip(
            first.procs + first.memory, second.procs + second.memory
        )) if a is b]
        assert shared  # each step leaves the other process alone
        for i in shared:
            assert shipped[0]._data[1 + i] is shipped[1]._data[1 + i]
        for carrier, child in zip(shipped, children):
            assert carrier.data == PackedCodec().encode(child)

    def test_decoding_shipped_fragments_returns_the_shipped_objects(self):
        codec = PackedCodec()
        config = bfs_configs(make_system(), 20)[-1]
        parts = pickle.loads(pickle.dumps(codec.fragments(config)))
        decoded = codec.decode(parts)
        assert all(a is b for a, b in zip(decoded.procs, config.procs))
        assert all(a is b for a, b in zip(decoded.memory, config.memory))
        assert join_fragments(parts) == codec.encode(config)

    def test_decode_rejects_a_fragment_of_the_wrong_kind(self):
        codec = PackedCodec()
        config = make_system().initial_configuration()
        nprocs, *frags = codec.fragments(config)
        swapped = (nprocs, frags[-1]) + tuple(frags[1:-1]) + (frags[0],)
        with pytest.raises(PackedCodecError, match="fragment 0"):
            PackedCodec().decode(swapped)

    def test_requires_data_or_config_and_codec(self):
        with pytest.raises(ValueError):
            PackedState()
        with pytest.raises(ValueError):
            PackedState(config=make_system().initial_configuration())


class TestBackends:
    """A configuration reaches the visited set in two forms: the plain
    ``Configuration`` the step relation builds (``reference``) and the
    one a :class:`PackedState` carrier decodes to after crossing a
    process or persistence boundary (``packed``). Both must key alike."""

    @staticmethod
    def _as(name, config):
        if name == "reference":
            return config
        return PackedState(PackedCodec().encode(config)).configuration(
            PackedCodec())

    @pytest.mark.parametrize("name", ["reference", "packed"])
    def test_fingerprints_agree_across_backends(self, name):
        codec = PackedCodec()
        for config in bfs_configs(make_system(), 60):
            form = self._as(name, config)
            fp, data = config_fingerprint(codec, form)
            assert (fp, data) == config_fingerprint(PackedCodec(), config)
            assert fp == packed_fingerprint(data)
            carrier = PackedState(data)
            assert carrier.configuration(codec) == config
            assert PackedState(carrier.data).data == data


class TestConfigFingerprint:
    def test_key_hashes_the_carrier_bytes(self):
        codec = PackedCodec()
        for config in bfs_configs(make_system(), 60):
            fp, data = config_fingerprint(codec, config)
            assert data == PackedCodec().encode(config)
            assert fp == packed_fingerprint(data)
            assert PackedState(data).configuration(codec) == config

    def test_orbit_key_hashes_the_representative(self):
        from repro.agreement.anonymous import AnonymousOneShotSetAgreement

        system = System(AnonymousOneShotSetAgreement(n=3, m=1, k=2),
                        workloads=[["v"]] * 3)
        classes = symmetry_classes(system)
        assert classes is not None
        codec = PackedCodec()
        for config in bfs_configs(system, 60):
            fp, data = config_fingerprint(codec, config, classes)
            representative = codec.decode(data)
            assert sorted(map(codec.proc_frag, representative.procs)) == \
                sorted(map(codec.proc_frag, config.procs))
            assert config_fingerprint(codec, representative, classes) == \
                (fp, data)
