"""Packed configuration codec, the frontier carrier, and its fingerprints.

The engine's hot path used to pay for configurations twice: every
successor was fingerprinted by walking the frozen-dataclass graph
(:func:`~repro.runtime.system.stable_fingerprint` feeds a few hundred
tiny ``blake2b.update`` calls per configuration), and every pool
boundary pickled the same graph again.  The source paper says a
configuration *is* small — the space bounds of Delporte-Gallet et al.
count O(n) registers — so this module gives it a representation to
match: an invertible, canonical byte encoding a few dozen to a few
hundred bytes long.

Format (version ``RP1``, documented byte-by-byte in
``docs/performance.md``):

* every value is one tag byte plus a payload; composite payloads carry
  LEB128 counts, so distinct structures cannot collide by concatenation;
* the five runtime skeleton classes (``Configuration``, ``ProcState``,
  ``ActiveOp``, ``Slot``, ``Frame``) get fixed one-byte class indices —
  their field layout is part of the format, and the run-key namespace
  :data:`~repro.explore.cache.CACHE_VERSION` is bumped whenever either
  changes, so journals persisted in the old format read as misses;
* every other frozen dataclass (protocol states, frame states,
  :class:`~repro.memory.layout.RegisterCoord`, ...) is encoded
  generically as ``(module, qualname, fields...)`` and reconstructed by
  import at decode time;
* sets and dicts are serialized in the order of their elements'
  encodings, so the bytes are canonical: equal values encode equally,
  regardless of insertion order or hash seed.

Two properties are load-bearing:

* **Invertibility** — ``decode(encode(c)) == c`` exactly (asserted by
  the round-trip property tests over every algorithm family).  Unlike
  ``stable_fingerprint``, there is no lossy ``repr`` fallback: a value
  outside the vocabulary raises :class:`PackedCodecError` instead of
  encoding ambiguously.
* **Context-free fragments** — the encoding of a value never depends on
  what was encoded before it (no cross-blob intern table), so per-process
  and per-bank fragments can be memoized.  Successors share all but one
  ``ProcState`` with their parent, which turns the per-successor
  fingerprint into a handful of dict hits, one join, and one ``blake2b``
  over a compact buffer — the ≥3x serial engine win recorded as E16.

The engine has one carrier: :class:`PackedState` (bytes plus a lazily
decoded configuration) moves through the frontier, the worker pool, and
the persistence layer.  ``__reduce__`` drops the decoded object, so the
multiprocessing pool ships compact bytes in both directions.  Visited
sets, parent maps and journal checkpoints are keyed by
:func:`config_fingerprint` — :func:`packed_fingerprint` over the same
canonical bytes — which is what makes checkpoints bit-identical across
worker counts and resumes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import struct
from typing import Any, Dict, Optional, Tuple

from repro._types import BOT, Params
from repro.errors import ReproError
from repro.explore.canonical import SymmetryClasses, canonicalize
from repro.runtime.frames import Frame
from repro.runtime.system import (
    ActiveOp,
    Configuration,
    ProcState,
    Slot,
)

#: Format magic + version; bumped together with any tag/layout change.
MAGIC = b"RP1"


class PackedCodecError(ReproError):
    """A value outside the codec vocabulary, or corrupt packed bytes."""


# --------------------------------------------------------------------- #
# Tags.  One byte each; composites carry LEB128 counts after the tag.
# --------------------------------------------------------------------- #

_T_NONE = ord("N")
_T_BOT = ord("B")
_T_TRUE = ord("T")
_T_FALSE = ord("F")
_T_INT = ord("i")
_T_FLOAT = ord("f")
_T_STR = ord("s")
_T_BYTES = ord("y")
_T_TUPLE = ord("t")
_T_LIST = ord("l")
_T_FROZENSET = ord("e")
_T_SET = ord("E")
_T_DICT = ord("d")
_T_PARAMS = ord("P")
_T_CLASS = ord("C")
_T_DATACLASS = ord("D")

#: Fixed class indices for the runtime skeleton (format-stable order).
_SKELETON: Tuple[type, ...] = (Configuration, ProcState, ActiveOp, Slot, Frame)
_SKELETON_INDEX: Dict[type, int] = {cls: i for i, cls in enumerate(_SKELETON)}
_SKELETON_FIELDS: Tuple[Tuple[str, ...], ...] = tuple(
    tuple(f.name for f in dataclasses.fields(cls)) for cls in _SKELETON
)

_FLOAT = struct.Struct(">d")


def _w_uint(out: bytearray, value: int) -> None:
    """Append *value* >= 0 as LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _r_uint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise PackedCodecError("truncated packed value (LEB128)") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


class PackedCodec:
    """Encode/decode configurations (and their value vocabulary) as bytes.

    The codec is deterministic and context-free: equal values always
    produce identical bytes, and a fragment's bytes never depend on what
    was encoded before it.  Instances keep semantically inert memo
    tables (per-process fragments — which double as orbit sort keys —
    per-bank fragments, and a generic interior-node memo for immutable
    containers such as tuples, slots, and frozen state records);
    ``memo_limit``
    bounds each, clearing on overflow, so long campaigns cannot grow
    them without bound.  Memos never change outputs — only how fast they
    are produced — and are dropped when a codec is pickled to a spawned
    worker.  Like the engine's fingerprint discipline, memoization
    assumes values reachable from a configuration are never mutated in
    place after being encoded (the runtime only evolves state through
    ``dataclasses.replace`` and tuple splicing, which preserves this).
    """

    def __init__(self, *, memo_limit: int = 1 << 18) -> None:
        self._memo_limit = memo_limit
        # Fragment memos are keyed by *object identity*, not equality:
        # successors share all but one ProcState object with their parent
        # (tuple splicing in System.step), so identity hits are the common
        # case and skip the recursive dataclass hashing an equality key
        # would pay on every lookup.  Entries retain the keyed object, so
        # an id can never be reused while its entry is alive, and hits are
        # verified with ``is``.  Identity only decides cache *hits*; the
        # bytes produced are a pure function of the value either way.
        self._proc_memo: Dict[int, Tuple[ProcState, bytes]] = {}
        self._bank_memo: Dict[int, Tuple[Tuple, bytes]] = {}
        # Generic interior-node memo for immutable containers (tuples,
        # non-root skeleton records, Params, frozensets, frozen
        # dataclasses).  ``dataclasses.replace`` keeps the identity of
        # unchanged field values, so even the one freshly built ProcState
        # per successor re-encodes only the path that actually changed.
        self._node_memo: Dict[int, Tuple[Any, bytes]] = {}
        # Per-class encoding plans for the generic dataclass path: the
        # constant header bytes (tag, module, qualname, field count) and
        # the field-name tuple, so neither is recomputed per instance.
        self._dc_plan: Dict[type, Tuple[bytes, Tuple[str, ...]]] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {"_memo_limit": self._memo_limit}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(memo_limit=state.get("_memo_limit", 1 << 18))

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def encode(self, config: Configuration) -> bytes:
        """Canonical packed bytes of *config* (``MAGIC`` + tagged payload)."""
        out = bytearray(MAGIC)
        self._enc(out, config)
        return bytes(out)

    def decode(self, data: bytes) -> Configuration:
        """Inverse of :meth:`encode`; validates framing and type."""
        value = self.decode_value(data)
        if not isinstance(value, Configuration):
            raise PackedCodecError(
                f"packed blob holds {type(value).__name__}, not Configuration"
            )
        return value

    def encode_value(self, value: Any) -> bytes:
        """Packed bytes of any vocabulary value (not just configurations)."""
        out = bytearray(MAGIC)
        self._enc(out, value)
        return bytes(out)

    def decode_value(self, data: bytes) -> Any:
        """Inverse of :meth:`encode_value`."""
        if data[: len(MAGIC)] != MAGIC:
            raise PackedCodecError(
                f"bad packed magic {bytes(data[:len(MAGIC)])!r}; expected {MAGIC!r}"
            )
        value, pos = self._dec(data, len(MAGIC))
        if pos != len(data):
            raise PackedCodecError(
                f"{len(data) - pos} trailing bytes after packed value"
            )
        return value

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def _frag(self, value: Any) -> bytes:
        buf = bytearray()
        self._enc(buf, value)
        return bytes(buf)

    def proc_frag(self, proc: ProcState) -> bytes:
        """Memoized RP1 fragment of one process record.

        Doubles as the orbit sort key: canonicalization orders class
        members by these bytes, so the chosen representative is a pure
        function of the configuration's value — identical across runs
        and worker processes — and the fragment computed for sorting is
        immediately reused when the representative is encoded.  (The
        ordering deliberately differs from the definitional
        ``stable_fingerprint`` order; orbit membership, and hence every
        exploration result, is unaffected by which member represents the
        orbit.)
        """
        entry = self._proc_memo.get(id(proc))  # repro: allow(DET003)
        if entry is not None and entry[0] is proc:
            return entry[1]
        if len(self._proc_memo) >= self._memo_limit:
            self._proc_memo.clear()
        buf = bytearray((_T_CLASS, _SKELETON_INDEX[ProcState]))
        for name in _SKELETON_FIELDS[1]:
            self._enc(buf, getattr(proc, name))
        frag = bytes(buf)
        self._proc_memo[id(proc)] = (proc, frag)  # repro: allow(DET003)
        return frag

    def _bank_frag(self, bank: Tuple) -> bytes:
        entry = self._bank_memo.get(id(bank))  # repro: allow(DET003)
        if entry is not None and entry[0] is bank:
            return entry[1]
        if len(self._bank_memo) >= self._memo_limit:
            self._bank_memo.clear()
        frag = self._frag(bank)
        self._bank_memo[id(bank)] = (bank, frag)  # repro: allow(DET003)
        return frag

    def _enc(self, out: bytearray, value: Any) -> None:
        if value is None:
            out.append(_T_NONE)
        elif value is BOT:
            out.append(_T_BOT)
        elif isinstance(value, bool):
            out.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            out.append(_T_INT)
            if 0 <= value < 64:  # one-byte fast path for small counters
                out.append(value << 1)
            else:
                _w_uint(out, value << 1 if value >= 0 else ((-value) << 1) | 1)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _FLOAT.pack(value)
        elif isinstance(value, str):
            data = value.encode()
            out.append(_T_STR)
            _w_uint(out, len(data))
            out += data
        elif isinstance(value, bytes):
            out.append(_T_BYTES)
            _w_uint(out, len(value))
            out += value
        elif type(value) is Configuration:
            out.append(_T_CLASS)
            out.append(_SKELETON_INDEX[Configuration])
            _w_uint(out, len(value.procs))
            for proc in value.procs:
                out += self.proc_frag(proc)
            _w_uint(out, len(value.memory))
            for bank in value.memory:
                out += self._bank_frag(bank)
        elif type(value) in _SKELETON_INDEX:
            memo = self._node_memo
            entry = memo.get(id(value))  # repro: allow(DET003)
            if entry is not None and entry[0] is value:
                out += entry[1]
                return
            index = _SKELETON_INDEX[type(value)]
            buf = bytearray((_T_CLASS, index))
            for name in _SKELETON_FIELDS[index]:
                self._enc(buf, getattr(value, name))
            frag = bytes(buf)
            if len(memo) >= self._memo_limit:
                memo.clear()
            memo[id(value)] = (value, frag)  # repro: allow(DET003)
            out += frag
        elif isinstance(value, tuple):
            memo = self._node_memo
            entry = memo.get(id(value))  # repro: allow(DET003)
            if entry is not None and entry[0] is value:
                out += entry[1]
                return
            buf = bytearray((_T_TUPLE,))
            _w_uint(buf, len(value))
            for item in value:
                self._enc(buf, item)
            frag = bytes(buf)
            if len(memo) >= self._memo_limit:
                memo.clear()
            memo[id(value)] = (value, frag)  # repro: allow(DET003)
            out += frag
        elif isinstance(value, list):
            out.append(_T_LIST)
            _w_uint(out, len(value))
            for item in value:
                self._enc(out, item)
        elif isinstance(value, (set, frozenset)):
            out.append(_T_FROZENSET if isinstance(value, frozenset) else _T_SET)
            _w_uint(out, len(value))
            for frag in sorted(self._frag(item) for item in value):
                out += frag
        elif isinstance(value, Params):
            out.append(_T_PARAMS)
            items = sorted(value.items())
            _w_uint(out, len(items))
            for key, val in items:
                self._enc(out, key)
                self._enc(out, val)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            pairs = sorted(
                (self._frag(key), self._frag(val)) for key, val in value.items()
            )
            _w_uint(out, len(pairs))
            for key_frag, val_frag in pairs:
                out += key_frag
                out += val_frag
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            memo = self._node_memo
            entry = memo.get(id(value))  # repro: allow(DET003)
            if entry is not None and entry[0] is value:
                out += entry[1]
                return
            cls = type(value)
            plan = self._dc_plan.get(cls)
            if plan is None:
                names = tuple(f.name for f in dataclasses.fields(value))
                header = bytearray((_T_DATACLASS,))
                self._enc(header, cls.__module__)
                self._enc(header, cls.__qualname__)
                _w_uint(header, len(names))
                plan = (bytes(header), names)
                self._dc_plan[cls] = plan
            buf = bytearray(plan[0])
            for name in plan[1]:
                self._enc(buf, getattr(value, name))
            frag = bytes(buf)
            if len(memo) >= self._memo_limit:
                memo.clear()
            memo[id(value)] = (value, frag)  # repro: allow(DET003)
            out += frag
        else:
            raise PackedCodecError(
                f"cannot pack {type(value).__name__!r} value {value!r}: not in "
                "the runtime value vocabulary (primitives, ⊥, tuples, sets, "
                "dicts, Params, frozen dataclasses)"
            )

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def _dec(self, data: bytes, pos: int) -> Tuple[Any, int]:
        try:
            tag = data[pos]
        except IndexError:
            raise PackedCodecError("truncated packed value (missing tag)") from None
        pos += 1
        if tag == _T_NONE:
            return None, pos
        if tag == _T_BOT:
            return BOT, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_INT:
            raw, pos = _r_uint(data, pos)
            return (-(raw >> 1) if raw & 1 else raw >> 1), pos
        if tag == _T_FLOAT:
            end = pos + _FLOAT.size
            if end > len(data):
                raise PackedCodecError("truncated packed float")
            return _FLOAT.unpack_from(data, pos)[0], end
        if tag in (_T_STR, _T_BYTES):
            size, pos = _r_uint(data, pos)
            end = pos + size
            if end > len(data):
                raise PackedCodecError("truncated packed string")
            raw = data[pos:end]
            return (raw.decode() if tag == _T_STR else bytes(raw)), end
        if tag in (_T_TUPLE, _T_LIST):
            count, pos = _r_uint(data, pos)
            items = []
            for _ in range(count):
                item, pos = self._dec(data, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag in (_T_FROZENSET, _T_SET):
            count, pos = _r_uint(data, pos)
            items = []
            for _ in range(count):
                item, pos = self._dec(data, pos)
                items.append(item)
            return (frozenset(items) if tag == _T_FROZENSET else set(items)), pos
        if tag == _T_PARAMS:
            count, pos = _r_uint(data, pos)
            pairs = {}
            for _ in range(count):
                key, pos = self._dec(data, pos)
                val, pos = self._dec(data, pos)
                pairs[key] = val
            return Params(pairs), pos
        if tag == _T_DICT:
            count, pos = _r_uint(data, pos)
            mapping = {}
            for _ in range(count):
                key, pos = self._dec(data, pos)
                val, pos = self._dec(data, pos)
                mapping[key] = val
            return mapping, pos
        if tag == _T_CLASS:
            try:
                index = data[pos]
            except IndexError:
                raise PackedCodecError("truncated packed class tag") from None
            pos += 1
            if index >= len(_SKELETON):
                raise PackedCodecError(f"unknown packed class index {index}")
            if index == _SKELETON_INDEX[Configuration]:
                count, pos = _r_uint(data, pos)
                procs = []
                for _ in range(count):
                    proc, pos = self._dec(data, pos)
                    procs.append(proc)
                count, pos = _r_uint(data, pos)
                banks = []
                for _ in range(count):
                    bank, pos = self._dec(data, pos)
                    banks.append(bank)
                return Configuration(procs=tuple(procs), memory=tuple(banks)), pos
            cls = _SKELETON[index]
            values = []
            for _ in _SKELETON_FIELDS[index]:
                value, pos = self._dec(data, pos)
                values.append(value)
            return cls(*values), pos
        if tag == _T_DATACLASS:
            module, pos = self._dec(data, pos)
            qualname, pos = self._dec(data, pos)
            count, pos = _r_uint(data, pos)
            cls = _resolve_dataclass(module, qualname)
            if len(dataclasses.fields(cls)) != count:
                raise PackedCodecError(
                    f"{module}.{qualname} has "
                    f"{len(dataclasses.fields(cls))} fields; packed value "
                    f"has {count} (stale class definition?)"
                )
            values = []
            for _ in range(count):
                value, pos = self._dec(data, pos)
                values.append(value)
            return cls(*values), pos
        raise PackedCodecError(f"unknown packed tag {tag:#x}")


#: Per-process cache of ``(module, qualname) -> dataclass`` resolutions.
_CLASS_CACHE: Dict[Tuple[str, str], type] = {}


def _resolve_dataclass(module: str, qualname: str) -> type:
    cls = _CLASS_CACHE.get((module, qualname))
    if cls is not None:
        return cls
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise PackedCodecError(
            f"cannot resolve packed dataclass {module}.{qualname}: {exc}"
        ) from exc
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise PackedCodecError(
            f"{module}.{qualname} resolved to {obj!r}, not a dataclass"
        )
    # Per-process memo, write-once per key with a value that is a pure
    # function of the key; fork inheritance cannot make workers diverge.
    _CLASS_CACHE[(module, qualname)] = obj  # repro: allow(CONC001)
    return obj


def packed_fingerprint(data: bytes) -> str:
    """Hex blake2b-128 of packed bytes — the engine's visited-set key.

    Same digest family and width as
    :func:`~repro.runtime.system.stable_fingerprint`, but fed one compact
    buffer instead of a few hundred per-node updates.  Equal
    configurations have equal packed bytes (the codec is canonical), so
    this keys visited sets, parent maps, and journals interchangeably
    across processes.
    """
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class PackedState:
    """Lazy carrier of one configuration through the frontier and pool.

    Lazy in both directions.  In-process it behaves like the
    configuration it wraps (the decoded object is created at most once
    and retained, so the serial hot path never decodes at all — the
    encoder hands the original object in); symmetrically, a carrier
    built from a configuration does not encode until its bytes are
    actually demanded (persistence or a pickle boundary), which spares
    the canonicalizing hot path a second encode per successor.  Across
    a pickle boundary only the bytes travel: ``__reduce__`` drops the
    decoded configuration and the codec reference, which is exactly the
    property that makes multiprocessing batches cheap.
    """

    __slots__ = ("_data", "_config", "_codec")

    def __init__(
        self,
        data: Optional[bytes] = None,
        config: Optional[Configuration] = None,
        codec: Optional[PackedCodec] = None,
    ):
        if data is None and (config is None or codec is None):
            raise ValueError("PackedState needs data, or a config and codec")
        self._data = data
        self._config = config
        self._codec = codec

    @property
    def data(self) -> bytes:
        """The packed bytes, encoding (once) if necessary."""
        if self._data is None:
            self._data = self._codec.encode(self._config)
        return self._data

    def configuration(self, codec: PackedCodec) -> Configuration:
        """The wrapped configuration, decoding (once) if necessary."""
        if self._config is None:
            self._config = codec.decode(self._data)
        return self._config

    def __reduce__(self):
        return (PackedState, (self.data,))

    def __repr__(self) -> str:
        decoded = "decoded" if self._config is not None else "lazy"
        packed = "packed" if self._data is not None else "unencoded"
        return f"PackedState({packed}, {decoded})"


def config_fingerprint(
    codec: PackedCodec,
    config: Configuration,
    classes: Optional[SymmetryClasses] = None,
) -> Tuple[str, bytes]:
    """Visited-set key of *config* plus the canonical bytes hashed.

    With symmetry classes the bytes are the *orbit representative's*
    encoding, so they key the visited set but do not represent
    ``config`` itself; the caller must not reuse them as a carrier.
    """
    if classes is None:
        data = codec.encode(config)
    else:
        data = codec.encode(canonicalize(config, classes, key=codec.proc_frag))
    return packed_fingerprint(data), data
