"""Canonical, pickle-free structured serialization.

Two properties drive this design, both demanded by the paper:

1. **Safety.**  Agent servers decode byte strings received from untrusted
   peers (arriving agents, section 5.1).  ``pickle`` would let a malicious
   sender execute arbitrary code during decoding — precisely the attack the
   whole system exists to prevent.  This codec instantiates only classes
   explicitly registered with :func:`register_serializable`, and object
   reconstruction goes through the class's own ``from_state`` with plain
   data, never through ``__reduce__``-style code execution.

2. **Canonicality.**  Credentials (section 5.2) and the agent transfer
   protocol sign serialized values; signature verification requires that
   the same value always encodes to the same bytes.  Dictionaries and sets
   are therefore encoded with entries sorted by their encoded byte string,
   ints use a minimal zigzag varint, and floats a fixed 8-byte IEEE-754
   encoding.  The decoder refuses every other spelling, so a value has
   exactly one accepted encoding and the digest of a sub-value is the
   SHA-256 of its byte span inside the container.

Supported values: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``, ``tuple``, ``set``, ``frozenset``, ``dict`` and
registered :class:`Serializable` objects, nested arbitrarily (up to a depth
guard).  Cycles are rejected.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Any, Protocol, runtime_checkable

from repro.errors import SerializationError

__all__ = [
    "Serializable",
    "register_serializable",
    "registered_class",
    "encode",
    "decode",
    "canonical_digest",
    "MAX_DEPTH",
]

MAX_DEPTH = 64

# Type tags: one ASCII byte each, unpacked to ints.
_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_STR, _T_BYTES = b"NTFIDSB"
_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET, _T_DICT, _T_OBJECT = b"LUERMO"
# Tags followed by a length or an item count.
_SIZED_TAGS = frozenset(b"SBLUERMO")

# Tag + one-byte length (or zigzag value) for the common short cases.
_STR_HEAD = tuple(bytes((_T_STR, n)) for n in range(0x80))
_BYTES_HEAD = tuple(bytes((_T_BYTES, n)) for n in range(0x80))
_INT_HEAD = tuple(bytes((_T_INT, z)) for z in range(0x80))

_DOUBLE = struct.Struct(">d")


@runtime_checkable
class Serializable(Protocol):
    """Objects that can cross the wire.

    ``to_state`` must return a value composed only of supported types;
    ``from_state`` must reconstruct an equivalent object from such a value.
    """

    def to_state(self) -> Any: ...

    @classmethod
    def from_state(cls, state: Any) -> "Serializable": ...


class Verbatim:
    """An already-canonical encoding that :func:`encode` embeds as is.

    A caller holding ``encode(value)`` can place it inside a larger value
    without encoding ``value`` again; the result is byte-identical to
    encoding the larger value with ``value`` in its place.  The bytes are
    trusted, so only wrap what :func:`encode` (or a span :func:`decode`
    reported) produced.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


# Registered class -> its frame header (tag, name length, name bytes).
_ENCODERS: dict[type, bytes] = {}
_DECODERS: dict[str, type] = {}

# Value-interning for immutable registered classes (``intern=True``):
# certificates, public keys and appraisal links recur verbatim in every
# credential chain and every appraisal record that crosses the wire, so
# their frames are memoized in both directions — value → frame bytes on
# encode, (name, state bytes) → shared instance on decode.  Only safe
# for deeply immutable classes, because decoded instances are shared.
_INTERN_TYPES: set[type] = set()
_ENCODE_CACHE: dict[Any, bytes] = {}
_DECODE_CACHE: dict[tuple[str, bytes], Any] = {}
# A wave of 8 tours interns 64 frames each way; a miss only re-codes one.
# Least recently used first: a hit moves its frame to the young end, so
# the certificates, keys and names every agent shares stay while one-shot
# link frames age out.
_INTERN_CAPACITY = 512


def _intern(cache: dict, key: Any, value: Any) -> None:
    if len(cache) >= _INTERN_CAPACITY:
        for stale in list(cache)[: _INTERN_CAPACITY // 4]:
            cache.pop(stale, None)
    cache[key] = value


def register_serializable(
    cls: type, name: str | None = None, *, intern: bool = False
) -> type:
    """Register ``cls`` for object serialization (usable as a decorator).

    The registered *name* (default: ``module:qualname``) is what appears in
    the byte stream; decoding a name that was never registered raises
    :class:`SerializationError` instead of importing anything.

    ``intern=True`` opts the class into frame memoization: its instances
    must be deeply immutable and hashable by value, and decoding equal
    bytes may return a shared instance.
    """
    if not hasattr(cls, "to_state") or not hasattr(cls, "from_state"):
        raise SerializationError(
            f"{cls!r} must define to_state() and from_state() to be serializable"
        )
    key = name if name is not None else f"{cls.__module__}:{cls.__qualname__}"
    existing = _DECODERS.get(key)
    if existing is not None and existing is not cls:
        raise SerializationError(f"serialization name {key!r} already registered")
    raw = key.encode("utf-8")
    header = bytearray((_T_OBJECT,))
    _write_uvarint(header, len(raw))
    _ENCODERS[cls] = bytes(header + raw)
    _DECODERS[key] = cls
    if intern:
        _INTERN_TYPES.add(cls)
    return cls


def registered_class(name: str) -> type:
    """Look up the class registered under ``name``."""
    try:
        return _DECODERS[name]
    except KeyError:
        raise SerializationError(f"unknown serializable type {name!r}") from None


# ---------------------------------------------------------------------------
# Varint primitives (unsigned LEB128; zigzag for signed ints)
# ---------------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # A zero final group after the first adds nothing: the encoder
            # never writes one, so it is a second spelling of the value.
            if not byte and shift:
                raise SerializationError("non-minimal varint")
            return result, pos
        shift += 7
        if shift > 1024:  # ints can be big (RSA moduli) but not unbounded
            raise SerializationError("varint too long")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _encode_into(out: bytearray, value: Any, depth: int, active: set[int]) -> None:
    if depth > MAX_DEPTH:
        raise SerializationError(f"value nesting exceeds MAX_DEPTH={MAX_DEPTH}")
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        n = len(raw)
        if n < 0x80:
            out += _STR_HEAD[n]
        else:
            out.append(_T_STR)
            _write_uvarint(out, n)
        out += raw
    elif kind is int:
        zigzag = value << 1 if value >= 0 else ((-value) << 1) - 1
        if zigzag < 0x80:
            out += _INT_HEAD[zigzag]
        else:
            out.append(_T_INT)
            _write_uvarint(out, zigzag)
    elif kind is dict:
        # Entries sorted by encoded key; keys are distinct, so the values
        # never take part in the order and are encoded in place.
        entries = [
            (_encode_one(key, depth + 1, active), item) for key, item in value.items()
        ]
        entries.sort(key=itemgetter(0))
        out.append(_T_DICT)
        _write_uvarint(out, len(entries))
        for key_bytes, item in entries:
            out += key_bytes
            _encode_into(out, item, depth + 1, active)
    elif kind is tuple or kind is list:
        marker = id(value)
        if marker in active:
            raise SerializationError("cyclic value cannot be serialized")
        active.add(marker)
        out.append(_T_TUPLE if kind is tuple else _T_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item, depth + 1, active)
        active.discard(marker)
    elif kind is bytes or kind is bytearray:
        n = len(value)
        if n < 0x80:
            out += _BYTES_HEAD[n]
        else:
            out.append(_T_BYTES)
            _write_uvarint(out, n)
        out += value
    elif value is None:
        out.append(_T_NONE)
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif kind is set or kind is frozenset:
        items = sorted(_encode_one(item, depth + 1, active) for item in value)
        out.append(_T_SET if kind is set else _T_FROZENSET)
        _write_uvarint(out, len(items))
        for item in items:
            out += item
    elif kind is Verbatim:
        out += value.data
    else:
        _encode_object(out, value, depth, active)


def _encode_object(out: bytearray, value: Any, depth: int, active: set[int]) -> None:
    kind = type(value)
    header = _ENCODERS.get(kind)
    if header is None:
        raise SerializationError(
            f"cannot serialize unregistered type {kind.__qualname__}"
        )
    interned = kind in _INTERN_TYPES
    if interned:
        cached = _ENCODE_CACHE.pop(value, None)
        if cached is not None:
            _ENCODE_CACHE[value] = cached
            out += cached
            return
    marker = id(value)
    if marker in active:
        raise SerializationError("cyclic value cannot be serialized")
    active.add(marker)
    state = bytearray()
    _encode_into(state, value.to_state(), depth + 1, active)
    active.discard(marker)
    start = len(out)
    out += header
    _write_uvarint(out, len(state))
    out += state
    if interned:
        _intern(_ENCODE_CACHE, value, bytes(out[start:]))


def _encode_one(value: Any, depth: int, active: set[int]) -> bytes:
    buf = bytearray()
    _encode_into(buf, value, depth, active)
    return bytes(buf)


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes."""
    out = bytearray()
    _encode_into(out, value, 0, set())
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode_from(
    data: bytes, pos: int, depth: int, spans: dict | None = None
) -> tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise SerializationError(f"value nesting exceeds MAX_DEPTH={MAX_DEPTH}")
    size = len(data)
    if pos >= size:
        raise SerializationError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        if pos < size and data[pos] < 0x80:
            zigzag = data[pos]
            pos += 1
        else:
            zigzag, pos = _read_uvarint(data, pos)
        return (zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > size:
            raise SerializationError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag not in _SIZED_TAGS:
        raise SerializationError(f"unknown type tag {bytes((tag,))!r}")
    # Every other tag is followed by a length or an item count.
    if pos < size and data[pos] < 0x80:
        n = data[pos]
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    if n > size - pos:  # each item is at least one byte, too
        raise SerializationError("declared length exceeds remaining data")
    if tag == _T_STR:
        end = pos + n
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid utf-8 in string") from exc
    if tag == _T_BYTES:
        end = pos + n
        return data[pos:end], end
    if tag == _T_DICT:
        result: dict[Any, Any] = {}
        # Canonical encodings list entries sorted by encoded key, so the
        # key bytes must be strictly increasing.  Enforcing that here
        # rejects duplicate keys (a smuggling vector: two ``transfer_id``
        # entries where validation sees one and use sees the other) and
        # makes every accepted encoding bit-for-bit re-encodable.
        prev_key = b""  # sorts before every encoding
        for _ in range(n):
            start = pos
            key, pos = _decode_from(data, pos, depth + 1)
            key_bytes = data[start:pos]
            if key_bytes <= prev_key:
                raise SerializationError(
                    "non-canonical dict encoding (duplicate or unsorted keys)"
                )
            prev_key = key_bytes
            start = pos
            item, pos = _decode_from(data, pos, depth + 1)
            try:
                result[key] = item
            except TypeError:
                raise SerializationError("unhashable dict key") from None
            if spans is not None:
                spans[key] = (start, pos)
        return result, pos
    if tag == _T_LIST or tag == _T_TUPLE:
        items = []
        for _ in range(n):
            item, pos = _decode_from(data, pos, depth + 1)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_OBJECT:
        return _decode_object(data, pos, n, depth, spans)
    # The one sized tag left: a set or frozenset.
    items = []
    # Same rule as dict keys: strictly increasing item encodings.
    prev_item = b""
    for _ in range(n):
        start = pos
        item, pos = _decode_from(data, pos, depth + 1)
        item_bytes = data[start:pos]
        if item_bytes <= prev_item:
            raise SerializationError(
                "non-canonical set encoding (duplicate or unsorted items)"
            )
        prev_item = item_bytes
        items.append(item)
    try:
        return (set(items) if tag == _T_SET else frozenset(items)), pos
    except TypeError:
        raise SerializationError("unhashable set item") from None


def _decode_object(
    data: bytes, pos: int, name_len: int, depth: int, spans: dict | None
) -> tuple[Any, int]:
    end = pos + name_len
    try:
        name = data[pos:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError("invalid utf-8 in type name") from exc
    cls = registered_class(name)
    state_len, pos = _read_uvarint(data, end)
    if state_len > len(data) - pos:
        raise SerializationError("declared length exceeds remaining data")
    end = pos + state_len
    interned = cls in _INTERN_TYPES
    if interned:
        key = (name, data[pos:end])
        cached = _DECODE_CACHE.pop(key, None)
        if cached is not None:
            _DECODE_CACHE[key] = cached
            return cached, end
    state, state_end = _decode_from(data, pos, depth + 1, spans)
    if state_end != end:
        raise SerializationError(f"object state length mismatch for {name!r}")
    try:
        obj = cls.from_state(state)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError(f"from_state failed for {name!r}: {exc}") from exc
    if interned:
        _intern(_DECODE_CACHE, key, obj)
    return obj, end


def decode(data: bytes, *, spans: dict | None = None) -> Any:
    """Deserialize canonical bytes produced by :func:`encode`.

    Safe on untrusted input: no code execution beyond registered
    ``from_state`` constructors, all declared lengths are validated
    against the buffer before allocation, and any encoding :func:`encode`
    would not have produced is refused, so every accepted byte string
    re-encodes bit for bit.

    ``spans``, when given, receives ``key -> (start, end)`` for each entry
    of the outermost dict (for an outermost object of a class registered
    without ``intern``, of its state dict): ``data[start:end]`` is
    exactly ``encode`` of that entry's value.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise SerializationError(f"decode expects bytes, got {type(data).__name__}")
    value, pos = _decode_from(bytes(data), 0, 0, spans)
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes after value")
    return value


def canonical_digest(value: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``value``.

    This is what credentials and transfer envelopes actually sign.
    """
    import hashlib

    return hashlib.sha256(encode(value)).digest()
