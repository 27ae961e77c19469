"""Unit tests for repro._types: the BOT sentinel and Params mapping."""

import pickle

import pytest

from repro._types import BOT, Params, _Bot, freeze_sequence, is_bot


class TestBot:
    def test_singleton(self):
        assert _Bot() is BOT

    def test_is_bot(self):
        assert is_bot(BOT)
        assert not is_bot(None)
        assert not is_bot(0)
        assert not is_bot("⊥")

    def test_repr(self):
        assert repr(BOT) == "⊥"

    def test_pickle_roundtrip_preserves_identity(self):
        assert pickle.loads(pickle.dumps(BOT)) is BOT

    def test_hashable_and_usable_in_sets(self):
        assert len({BOT, BOT, None}) == 2


class TestParams:
    def test_getitem(self):
        p = Params(n=4, m=1, k=2)
        assert p["n"] == 4
        assert p["m"] == 1
        assert p["k"] == 2

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            Params(n=4)["zzz"]

    def test_order_insensitive_equality_and_hash(self):
        a = Params(n=4, m=1, k=2)
        b = Params(k=2, m=1, n=4)
        assert a == b
        assert hash(a) == hash(b)

    def test_mapping_protocol(self):
        p = Params(a=1, b=2)
        assert set(p) == {"a", "b"}
        assert len(p) == 2
        assert dict(p) == {"a": 1, "b": 2}
        assert p.get("a") == 1
        assert p.get("zzz", 9) == 9

    def test_updated_returns_new_merged(self):
        p = Params(n=4, m=1)
        q = p.updated(m=2, extra="x")
        assert q["m"] == 2 and q["extra"] == "x" and q["n"] == 4
        assert p["m"] == 1  # original untouched

    def test_merge_positional_mappings(self):
        p = Params({"a": 1, "b": 2}, b=3)
        assert p["a"] == 1 and p["b"] == 3

    def test_equals_mappings_by_items(self):
        assert Params(a=1) == {"a": 1}
        assert {"a": 1} == Params(a=1)
        assert Params(a=1) != {"a": 2}
        assert Params(a=1) != {"a": 1, "b": 2}

    def test_non_mapping_is_unequal(self):
        assert Params(a=1) != (("a", 1),)
        assert Params() != None  # noqa: E711
        assert Params().__eq__(42) is NotImplemented

    def test_frozenset_mixing_params_and_other_values(self):
        class Collides:
            # Same hash as the Params, so the set must compare them.
            def __hash__(self):
                return hash(Params(a=1))

        values = frozenset({Params(a=1), Params(a=1), Collides(), ("a", 1)})
        assert len(values) == 3
        assert Params(a=1) in values

    def test_repr_contains_items(self):
        assert "n=4" in repr(Params(n=4))


class TestFreezeSequence:
    def test_tuple_identity(self):
        t = (1, 2)
        assert freeze_sequence(t) is t

    def test_list_to_tuple(self):
        assert freeze_sequence([1, 2]) == (1, 2)

    def test_generator(self):
        assert freeze_sequence(x for x in range(3)) == (0, 1, 2)
