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
  what was encoded before it (the format has no back-references), so
  per-process and per-bank fragments can be memoized, and shipped on
  their own.  Successors share all but one
  ``ProcState`` with their parent, which turns the per-successor
  fingerprint into a handful of dict hits, one join, and one ``blake2b``
  over a compact buffer (measurements in ``docs/performance.md``).

Decoding a configuration seeds the process and bank memos with the byte
spans it just read, so a pool worker hits on every process and bank a
step leaves alone.  Seeds come only from canonical codec output — what
reaches :meth:`PackedCodec.decode` comes from :meth:`PackedCodec.encode`
or :meth:`PackedCodec.fragments`, over the pool boundary or from a
checksummed checkpoint — so each span is exactly what encoding the
decoded object would produce.  Decoding hand-built, non-canonical bytes
would break that and is not supported.

The engine has one carrier: :class:`PackedState` (bytes or fragments,
plus a lazily decoded configuration) moves through the frontier, the
worker pool, and the persistence layer.  In the paper's model a step
changes one process and at most one register, so a successor shares
every other process record and register bank with its parent and its
siblings.  The pool therefore ships a carrier as its per-process and
per-bank fragments, not as one blob: pickle sends a fragment that
siblings share once per message, and the receiving codec interns
fragments by their bytes, so decoding is one dict lookup per fragment
and a worker gets back the very objects it shipped, memo entries and
all.  Only checkpoints join the fragments into bytes.  Visited
sets, parent maps and journal checkpoints are keyed by
:func:`config_fingerprint` — :func:`packed_fingerprint` over the same
canonical bytes — which is what makes checkpoints bit-identical across
worker counts and resumes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import operator
import struct
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
)

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

#: Field-value getters of the skeleton classes, in format order.
_SKELETON_GET: Tuple[Callable[[Any], Tuple], ...] = tuple(
    operator.attrgetter(*names) for names in _SKELETON_FIELDS
)
#: The skeleton records encoded field by field (all but the root).
_RECORD_INDEX: Dict[type, int] = {
    cls: i for cls, i in _SKELETON_INDEX.items() if cls is not Configuration
}

_NONE_TYPE = type(None)
_BOT_TYPE = type(BOT)
#: Classes with a block of their own in ``PackedCodec._enc_all``.
_EXACT: FrozenSet[type] = frozenset(
    (_NONE_TYPE, _BOT_TYPE, bool, int, float, str, bytes, tuple, list,
     frozenset, set, Params, dict) + _SKELETON
)
#: Complete encodings of the ints 0..63: the tag and one zigzag byte.
_SMALL_INTS: Tuple[bytes, ...] = tuple(bytes((_T_INT, v << 1)) for v in range(64))

_FLOAT = struct.Struct(">d")


def _field_getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple]:
    """A callable returning an instance's *names* fields as a tuple."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda value: (get(value),)
    return lambda value: ()


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
    per-bank fragments, a generic interior-node memo for immutable
    containers such as tuples, slots, and frozen state records, and the
    pool boundary's fragment intern table);
    ``memo_limit`` bounds each, clearing on overflow, so long campaigns
    cannot grow them without bound.  Memos never change outputs — only
    how fast they are produced — and are dropped when a codec is pickled
    to a spawned worker.  Like the engine's fingerprint discipline,
    memoization assumes values reachable from a configuration are never
    mutated in place after being encoded (the runtime only evolves state
    by building new records and splicing tuples, which preserves this).
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
        # Decoding a configuration seeds both tables (_dec_seeding,
        # _dec_fragments).
        self._proc_memo: Dict[int, Tuple[ProcState, bytes]] = {}
        self._bank_memo: Dict[int, Tuple[Tuple, bytes]] = {}
        # The pool boundary's intern table: process-record and bank
        # fragments, keyed by their bytes, mapped to the object they
        # encode.  Filled only by fragments() and by decoding fragments,
        # never on the serial path; a worker decoding a parent it shipped
        # as a successor gets its own objects back, memo entries and all.
        self._intern: Dict[bytes, Any] = {}
        # Generic interior-node memo for immutable containers (tuples,
        # non-root skeleton records and frozen dataclasses).  System.step
        # builds each new record from its parent's unchanged field
        # objects, so even the one freshly built ProcState per successor
        # re-encodes only the path that actually changed.
        self._node_memo: Dict[int, Tuple[Any, bytes]] = {}
        # Per-class encoding plans for the generic dataclass path (see
        # _block_class).
        self._dc_plan: Dict[type, Tuple[bytes, Callable[[Any], Tuple]]] = {}

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
        self._enc_all(out, (config,))
        return bytes(out)

    def decode(self, data: Union[bytes, Tuple]) -> Configuration:
        """Inverse of :meth:`encode`; validates framing and type.

        *data* is packed bytes or the fragments :meth:`fragments` made.
        """
        if type(data) is tuple:
            return self._dec_fragments(data)
        value = self.decode_value(data)
        if not isinstance(value, Configuration):
            raise PackedCodecError(
                f"packed blob holds {type(value).__name__}, not Configuration"
            )
        return value

    def encode_value(self, value: Any) -> bytes:
        """Packed bytes of any vocabulary value (not just configurations)."""
        out = bytearray(MAGIC)
        self._enc_all(out, (value,))
        return bytes(out)

    def decode_value(self, data: bytes) -> Any:
        """Inverse of :meth:`encode_value`."""
        if data[: len(MAGIC)] != MAGIC:
            raise PackedCodecError(
                f"bad packed magic {bytes(data[:len(MAGIC)])!r}; expected {MAGIC!r}"
            )
        (value,), pos = self._dec_all(data, len(MAGIC), 1)
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
        self._enc_all(buf, (value,))
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
        frag = self._record(proc, _RECORD_INDEX[ProcState])
        self._remember(self._proc_memo, proc, frag)
        return frag

    def _bank_frag(self, bank: Tuple) -> bytes:
        entry = self._bank_memo.get(id(bank))  # repro: allow(DET003)
        if entry is not None and entry[0] is bank:
            return entry[1]
        # The tuple block, written here so the bank is not also stored
        # in the node memo.
        frag = self._tuple_block(bank)
        self._remember(self._bank_memo, bank, frag)
        return frag

    def fragments(self, config: Configuration) -> Tuple:
        """*config* as it crosses the pool: ``(n, *procs, *banks)``.

        ``n`` is the process count; the rest are the process-record and
        bank fragments, in order — the very ``bytes`` objects the memos
        hold, so siblings share them and pickle sends each once per
        message.  Each fragment is interned, so the codec that decodes
        it later returns the object shipped.  :func:`join_fragments`
        turns the tuple into :meth:`encode`'s bytes.
        """
        procs, memory = config.procs, config.memory
        frags = [*map(self.proc_frag, procs), *map(self._bank_frag, memory)]
        self._intern_all(itertools.chain(procs, memory), frags)
        return (len(procs), *frags)

    def _record(self, value: Any, index: int) -> bytes:
        """Fragment of skeleton record *value*, whose class index is *index*."""
        buf = bytearray((_T_CLASS, index))
        self._enc_all(buf, _SKELETON_GET[index](value))
        return bytes(buf)

    def _tuple_block(self, value: Tuple) -> bytes:
        """Fragment of tuple *value* (not memoized)."""
        size = len(value)
        if size < 0x80:
            buf = bytearray((_T_TUPLE, size))
        else:
            buf = bytearray((_T_TUPLE,))
            _w_uint(buf, size)
        self._enc_all(buf, value)
        return bytes(buf)

    def _remember(self, memo: Dict[int, Tuple[Any, bytes]], value: Any,
                  frag: bytes) -> None:
        """Record *frag* as *value*'s fragment, clearing *memo* when full."""
        if len(memo) >= self._memo_limit:
            memo.clear()
        memo[id(value)] = (value, frag)  # repro: allow(DET003)

    def _intern_all(self, values: Iterable[Any], frags: Iterable[bytes]) -> None:
        """Intern each of *values* under its fragment, clearing when full."""
        intern = self._intern
        limit = self._memo_limit
        for value, frag in zip(values, frags):
            if len(intern) >= limit:
                intern.clear()
            intern[frag] = value

    def _enc_all(self, out: bytearray, values: Iterable[Any]) -> None:
        """Append the RP1 encoding of each of *values* to *out*, in order.

        One dispatch loop encodes every value, so the scalars inside a
        tuple or record (``None``, ints, strings) are written inline,
        without a call per item; only composites recurse, once for all
        of their children.  Dispatch tests the exact class first;
        subclasses and first-seen dataclasses pass through
        :meth:`_block_class`, which names the block that encodes them.
        Every type's bytes are written by exactly one block below.
        """
        node_memo = self._node_memo
        plans = self._dc_plan
        for value in values:
            cls = type(value)
            if cls not in _EXACT and cls not in plans:
                cls = self._block_class(value)
            if cls is int:
                if 0 <= value < 64:  # one-byte fast path for small counters
                    out += _SMALL_INTS[value]
                else:
                    out.append(_T_INT)
                    _w_uint(out, value << 1 if value >= 0 else ((-value) << 1) | 1)
            elif cls is tuple:
                entry = node_memo.get(id(value))  # repro: allow(DET003)
                if entry is not None and entry[0] is value:
                    out += entry[1]
                    continue
                frag = self._tuple_block(value)
                self._remember(node_memo, value, frag)
                out += frag
            elif cls is _NONE_TYPE:
                out.append(_T_NONE)
            elif cls is str:
                data = value.encode()
                out.append(_T_STR)
                _w_uint(out, len(data))
                out += data
            elif cls in _RECORD_INDEX:
                entry = node_memo.get(id(value))  # repro: allow(DET003)
                if entry is not None and entry[0] is value:
                    out += entry[1]
                    continue
                frag = self._record(value, _RECORD_INDEX[cls])
                self._remember(node_memo, value, frag)
                out += frag
            elif cls is Configuration:
                out.append(_T_CLASS)
                out.append(_SKELETON_INDEX[Configuration])
                _w_uint(out, len(value.procs))
                for proc in value.procs:
                    out += self.proc_frag(proc)
                _w_uint(out, len(value.memory))
                for bank in value.memory:
                    out += self._bank_frag(bank)
            elif cls is _BOT_TYPE:
                out.append(_T_BOT)
            elif cls is bool:
                out.append(_T_TRUE if value else _T_FALSE)
            elif cls is float:
                out.append(_T_FLOAT)
                out += _FLOAT.pack(value)
            elif cls is bytes:
                out.append(_T_BYTES)
                _w_uint(out, len(value))
                out += value
            elif cls is list:
                out.append(_T_LIST)
                _w_uint(out, len(value))
                self._enc_all(out, value)
            elif cls is frozenset or cls is set:
                out.append(_T_FROZENSET if cls is frozenset else _T_SET)
                _w_uint(out, len(value))
                for frag in sorted(self._frag(item) for item in value):
                    out += frag
            elif cls is Params:
                out.append(_T_PARAMS)
                items = sorted(value.items())
                _w_uint(out, len(items))
                self._enc_all(out, itertools.chain.from_iterable(items))
            elif cls is dict:
                out.append(_T_DICT)
                pairs = sorted(
                    (self._frag(key), self._frag(val)) for key, val in value.items()
                )
                _w_uint(out, len(pairs))
                for key_frag, val_frag in pairs:
                    out += key_frag
                    out += val_frag
            else:  # a frozen dataclass, planned by _block_class
                entry = node_memo.get(id(value))  # repro: allow(DET003)
                if entry is not None and entry[0] is value:
                    out += entry[1]
                    continue
                header, fields = plans[cls]
                buf = bytearray(header)
                self._enc_all(buf, fields(value))
                frag = bytes(buf)
                self._remember(node_memo, value, frag)
                out += frag

    def _block_class(self, value: Any) -> type:
        """The class whose block in :meth:`_enc_all` encodes *value*.

        Reached only by values whose exact class has no block of its
        own: a subclass maps to the first vocabulary class it derives
        from, in the order below, and a frozen dataclass maps to itself
        once its encoding plan exists.
        """
        for base in (bool, int, float, str, bytes, tuple, list, frozenset,
                     set, Params, dict):
            if isinstance(value, base):
                return base
        cls = type(value)
        if not dataclasses.is_dataclass(value) or isinstance(value, type):
            raise PackedCodecError(
                f"cannot pack {cls.__name__!r} value {value!r}: not in "
                "the runtime value vocabulary (primitives, ⊥, tuples, sets, "
                "dicts, Params, frozen dataclasses)"
            )
        # The plan holds the constant header bytes (tag, module,
        # qualname, field count) and a getter for the field values, so
        # neither is recomputed per instance.
        names = tuple(f.name for f in dataclasses.fields(value))
        header = bytearray((_T_DATACLASS,))
        self._enc_all(header, (cls.__module__, cls.__qualname__))
        _w_uint(header, len(names))
        self._dc_plan[cls] = (bytes(header), _field_getter(names))
        return cls

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def _dec_all(self, data: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
        """Decode *count* consecutive values of *data* from *pos* on.

        The mirror of :meth:`_enc_all`: one loop decodes all children of
        a composite, so scalars cost no call and only nested composites
        recurse.  Returns the values and the position after the last.
        """
        items: List[Any] = []
        append = items.append
        end = len(data)
        for _ in range(count):
            if pos >= end:
                raise PackedCodecError("truncated packed value (missing tag)")
            tag = data[pos]
            pos += 1
            if tag == _T_INT:
                if pos < end and data[pos] < 0x80:  # one-byte LEB128
                    raw = data[pos]
                    pos += 1
                else:
                    raw, pos = _r_uint(data, pos)
                append(-(raw >> 1) if raw & 1 else raw >> 1)
            elif tag == _T_TUPLE or tag == _T_LIST:
                size, pos = _r_uint(data, pos)
                values, pos = self._dec_all(data, pos, size)
                append(tuple(values) if tag == _T_TUPLE else values)
            elif tag == _T_STR or tag == _T_BYTES:
                size, pos = _r_uint(data, pos)
                stop = pos + size
                if stop > end:
                    raise PackedCodecError("truncated packed string")
                raw = data[pos:stop]
                append(raw.decode() if tag == _T_STR else raw)
                pos = stop
            elif tag == _T_NONE:
                append(None)
            elif tag == _T_CLASS:
                if pos >= end:
                    raise PackedCodecError("truncated packed class tag")
                index = data[pos]
                pos += 1
                if index >= len(_SKELETON):
                    raise PackedCodecError(f"unknown packed class index {index}")
                if index == _SKELETON_INDEX[Configuration]:
                    procs, pos = self._dec_seeding(data, pos, self._proc_memo)
                    banks, pos = self._dec_seeding(data, pos, self._bank_memo)
                    append(Configuration(procs=tuple(procs), memory=tuple(banks)))
                else:
                    values, pos = self._dec_all(
                        data, pos, len(_SKELETON_FIELDS[index])
                    )
                    append(_SKELETON[index](*values))
            elif tag == _T_DATACLASS:
                (module, qualname), pos = self._dec_all(data, pos, 2)
                size, pos = _r_uint(data, pos)
                cls, arity = _resolve_dataclass(module, qualname)
                if arity != size:
                    raise PackedCodecError(
                        f"{module}.{qualname} has {arity} fields; packed "
                        f"value has {size} (stale class definition?)"
                    )
                values, pos = self._dec_all(data, pos, size)
                append(cls(*values))
            elif tag == _T_BOT:
                append(BOT)
            elif tag == _T_TRUE:
                append(True)
            elif tag == _T_FALSE:
                append(False)
            elif tag == _T_FLOAT:
                stop = pos + _FLOAT.size
                if stop > end:
                    raise PackedCodecError("truncated packed float")
                append(_FLOAT.unpack_from(data, pos)[0])
                pos = stop
            elif tag == _T_FROZENSET or tag == _T_SET:
                size, pos = _r_uint(data, pos)
                values, pos = self._dec_all(data, pos, size)
                append(frozenset(values) if tag == _T_FROZENSET else set(values))
            elif tag == _T_PARAMS or tag == _T_DICT:
                size, pos = _r_uint(data, pos)
                values, pos = self._dec_all(data, pos, 2 * size)
                mapping = dict(zip(values[::2], values[1::2]))
                append(Params(mapping) if tag == _T_PARAMS else mapping)
            else:
                raise PackedCodecError(f"unknown packed tag {tag:#x}")
        return items, pos

    def _dec_seeding(self, data: bytes, pos: int,
                     memo: Dict[int, Tuple[Any, bytes]]) -> Tuple[List[Any], int]:
        """Decode a counted run of values, seeding *memo* with their bytes.

        Each value's memo entry is the exact span it was decoded from:
        the blob is canonical codec output, so the span is what encoding
        the value would give, and successors of a decoded parent hit on
        every process and bank their step left alone.
        """
        count, pos = _r_uint(data, pos)
        values: List[Any] = []
        for _ in range(count):
            start = pos
            (value,), pos = self._dec_all(data, pos, 1)
            values.append(value)
            self._remember(memo, value, data[start:pos])
        return values, pos

    def _dec_fragments(self, parts: Tuple) -> Configuration:
        """Decode the tuple :meth:`fragments` made, one lookup per fragment.

        An interned fragment yields its object; only a miss is decoded
        (and interned).  Either way the process and bank memos are
        seeded, as :meth:`_dec_seeding` seeds them from a blob.
        """
        nprocs = parts[0]
        intern = self._intern
        values: List[Any] = []
        for index, frag in enumerate(parts[1:]):
            value = intern.get(frag)
            if value is None:
                (value,), pos = self._dec_all(frag, 0, 1)
                kind = ProcState if index < nprocs else tuple
                if pos != len(frag) or type(value) is not kind:
                    raise PackedCodecError(
                        f"fragment {index} is not one {kind.__name__}"
                    )
                self._intern_all((value,), (frag,))
            values.append(value)
        procs, memory = tuple(values[:nprocs]), tuple(values[nprocs:])
        self._seed_once(self._proc_memo, procs, parts[1:])
        self._seed_once(self._bank_memo, memory, parts[1 + nprocs:])
        return Configuration(procs=procs, memory=memory)

    def _seed_once(self, memo: Dict[int, Tuple[Any, bytes]],
                   values: Iterable[Any], frags: Iterable[bytes]) -> None:
        """Seed *memo* with each value's fragment unless it holds one.

        Interned values recur across parents, each shipping its own equal
        ``bytes``; keeping the first means successors of every parent
        share one object, which pickle then sends once per message.
        """
        for value, frag in zip(values, frags):
            entry = memo.get(id(value))  # repro: allow(DET003)
            if entry is None or entry[0] is not value:
                self._remember(memo, value, frag)


#: Per-process cache of ``(module, qualname) -> (dataclass, field count)``.
_CLASS_CACHE: Dict[Tuple[str, str], Tuple[type, int]] = {}


def _resolve_dataclass(module: str, qualname: str) -> Tuple[type, int]:
    resolved = _CLASS_CACHE.get((module, qualname))
    if resolved is not None:
        return resolved
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
    resolved = (obj, len(dataclasses.fields(obj)))
    _CLASS_CACHE[(module, qualname)] = resolved  # repro: allow(CONC001)
    return resolved


def join_fragments(parts: Tuple) -> bytes:
    """The packed bytes of the configuration :meth:`PackedCodec.fragments`
    split: the same bytes :meth:`PackedCodec.encode` gives."""
    nprocs = parts[0]
    out = bytearray(MAGIC)
    out.append(_T_CLASS)
    out.append(_SKELETON_INDEX[Configuration])
    _w_uint(out, nprocs)
    out += b"".join(parts[1:1 + nprocs])
    _w_uint(out, len(parts) - 1 - nprocs)
    out += b"".join(parts[1 + nprocs:])
    return bytes(out)


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
    actually demanded (persistence), which spares the canonicalizing
    hot path a second encode per successor.

    ``data`` is the packed bytes or the fragments tuple of
    :meth:`PackedCodec.fragments`.  Across a pickle boundary only the
    fragments travel (bytes, for a carrier that has nothing else, such
    as one read from a checkpoint): ``__reduce__`` drops the decoded
    configuration and the codec reference, and a decoded carrier ships
    its codec's memoized fragments, so pickle sends a fragment that
    siblings share once per message.  A pool worker builds its
    successors as fragments carriers up front, so pickling them only
    ships the tuple they already hold.
    """

    __slots__ = ("_data", "_config", "_codec")

    def __init__(
        self,
        data: Optional[Union[bytes, Tuple]] = None,
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
        """The packed bytes, encoding (once) if necessary.

        A fragments carrier joins them on each call and keeps only the
        fragments; the bytes are wanted by checkpoints alone.
        """
        data = self._data
        if data is None:
            data = self._data = self._codec.encode(self._config)
        elif type(data) is tuple:
            return join_fragments(data)
        return data

    def configuration(self, codec: PackedCodec) -> Configuration:
        """The wrapped configuration, decoding (once) if necessary."""
        if self._config is None:
            self._config = codec.decode(self._data)
        return self._config

    def __reduce__(self):
        if self._codec is not None and self._config is not None:
            return (PackedState, (self._codec.fragments(self._config),))
        return (PackedState, (self._data,))

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
