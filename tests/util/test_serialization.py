"""Unit + property tests for the canonical serialization codec."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.util.serialization import (
    MAX_DEPTH,
    canonical_digest,
    decode,
    encode,
    register_serializable,
)


# ---------------------------------------------------------------------------
# Round-trip basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**200,
        -(2**200),
        0.0,
        -1.5,
        math.inf,
        "",
        "hello",
        "ünïcødé ✓",
        b"",
        b"\x00\xff" * 10,
        [],
        [1, 2, 3],
        (),
        (1, "a", None),
        set(),
        {1, 2, 3},
        frozenset({"a", "b"}),
        {},
        {"k": "v", "n": [1, 2, {"deep": True}]},
        {1: "int-key", (1, 2): "tuple-key"},
    ],
)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def test_roundtrip_preserves_types():
    assert type(decode(encode((1, 2)))) is tuple
    assert type(decode(encode([1, 2]))) is list
    assert type(decode(encode(frozenset({1})))) is frozenset
    assert type(decode(encode({1}))) is set
    assert type(decode(encode(1))) is int
    assert type(decode(encode(1.0))) is float


def test_nan_roundtrip():
    out = decode(encode(float("nan")))
    assert math.isnan(out)


def test_bool_not_confused_with_int():
    assert decode(encode(True)) is True
    assert decode(encode(1)) == 1
    assert encode(True) != encode(1)


# ---------------------------------------------------------------------------
# Canonicality — same value, same bytes
# ---------------------------------------------------------------------------


def test_dict_insertion_order_irrelevant():
    a = {"x": 1, "y": 2, "z": 3}
    b = {"z": 3, "x": 1, "y": 2}
    assert encode(a) == encode(b)


def test_set_iteration_order_irrelevant():
    assert encode({3, 1, 2}) == encode({1, 2, 3})
    assert encode(frozenset("abc")) == encode(frozenset("cba"))


def test_digest_is_sha256_of_encoding():
    import hashlib

    value = {"agent": "a-1", "rights": [1, 2]}
    assert canonical_digest(value) == hashlib.sha256(encode(value)).digest()


# ---------------------------------------------------------------------------
# Registered objects
# ---------------------------------------------------------------------------


@register_serializable
class Point:
    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def to_state(self):
        return {"x": self.x, "y": self.y}

    @classmethod
    def from_state(cls, state):
        return cls(state["x"], state["y"])

    def __eq__(self, other):
        return isinstance(other, Point) and (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))


def test_object_roundtrip():
    p = Point(3, -4)
    assert decode(encode(p)) == p


def test_nested_object_roundtrip():
    data = {"points": [Point(0, 0), Point(1, 1)]}
    assert decode(encode(data)) == data


def test_unregistered_type_rejected():
    class Stray:
        pass

    with pytest.raises(SerializationError, match="unregistered"):
        encode(Stray())


def test_register_requires_protocol_methods():
    class NoState:
        pass

    with pytest.raises(SerializationError, match="to_state"):
        register_serializable(NoState)


def test_duplicate_name_rejected():
    class Fake:
        def to_state(self):
            return None

        @classmethod
        def from_state(cls, state):
            return cls()

    with pytest.raises(SerializationError, match="already registered"):
        register_serializable(Fake, name=f"{Point.__module__}:Point")


def test_reregistering_same_class_is_idempotent():
    assert register_serializable(Point) is Point


def test_decode_unknown_type_name():
    class Tmp:
        def to_state(self):
            return 1

        @classmethod
        def from_state(cls, state):
            return cls()

    register_serializable(Tmp, name="tests:tmp-unique")
    blob = encode(Tmp())
    evil = blob.replace(b"tests:tmp-unique", b"tests:tmp-UNIQUE")
    with pytest.raises(SerializationError, match="unknown serializable type"):
        decode(evil)


def test_from_state_exception_wrapped():
    class Fragile:
        def to_state(self):
            return "not-a-dict"

        @classmethod
        def from_state(cls, state):
            return cls(**state)  # TypeError on a string

    register_serializable(Fragile, name="tests:fragile")
    with pytest.raises(SerializationError, match="from_state failed"):
        decode(encode(Fragile()))


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------


def test_truncated_input_rejected():
    blob = encode({"k": [1, 2, 3]})
    for cut in range(len(blob)):
        with pytest.raises(SerializationError):
            decode(blob[:cut])


def test_trailing_garbage_rejected():
    with pytest.raises(SerializationError, match="trailing"):
        decode(encode(1) + b"x")


def test_unknown_tag_rejected():
    with pytest.raises(SerializationError, match="unknown type tag"):
        decode(b"Z")


def test_huge_declared_length_rejected_without_allocation():
    # Claims a 2**40-byte string with a 3-byte payload.
    evil = bytearray(b"S")
    n = 2**40
    while True:
        byte = n & 0x7F
        n >>= 7
        evil.append(byte | 0x80 if n else byte)
        if not n:
            break
    evil += b"abc"
    with pytest.raises(SerializationError, match="declared length"):
        decode(bytes(evil))


def test_depth_limit_on_encode():
    deep: list = []
    cursor = deep
    for _ in range(MAX_DEPTH + 2):
        nxt: list = []
        cursor.append(nxt)
        cursor = nxt
    with pytest.raises(SerializationError, match="MAX_DEPTH"):
        encode(deep)


def test_cycle_rejected():
    lst: list = [1]
    lst.append(lst)
    with pytest.raises(SerializationError, match="cyclic"):
        encode(lst)


def test_invalid_utf8_rejected():
    blob = bytearray(encode("ab"))
    blob[-1] = 0xFF  # corrupt the payload into invalid utf-8
    with pytest.raises(SerializationError, match="utf-8"):
        decode(bytes(blob))


def test_decode_requires_bytes():
    with pytest.raises(SerializationError, match="expects bytes"):
        decode("not bytes")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Property-based round-trips
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.frozensets(
            st.one_of(st.integers(), st.text(max_size=8)), max_size=5
        ),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_property_roundtrip(value):
    assert decode(encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(_values)
def test_property_encoding_is_canonical_fixed_point(value):
    # decode∘encode reaches a canonical form: re-encoding is a fixed point.
    # (Note: equal-by-== values may encode differently on purpose — the
    # codec distinguishes bool from int and 1 from 1.0 on the wire.)
    blob = encode(value)
    assert encode(decode(blob)) == blob


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
def test_property_dict_order_canonical(d):
    shuffled = dict(reversed(list(d.items())))
    assert encode(d) == encode(shuffled)


# ---------------------------------------------------------------------------
# Intern tables
# ---------------------------------------------------------------------------


def test_a_frame_used_every_wave_outlives_one_shot_frames():
    # 20 waves of 64 one-shot frames overflow the 512-entry tables more
    # than twice; the frame every wave uses must stay interned throughout.
    from repro.agents.itinerary import Stop
    from repro.util import serialization

    shared = Stop("urn:server:shared")
    frame = encode(shared)
    instance = decode(frame)
    for wave in range(20):
        for agent in range(64):
            decode(encode(Stop(f"urn:server:wave-{wave}-agent-{agent}")))
        assert shared in serialization._ENCODE_CACHE  # an encode hit
        assert encode(shared) == frame
        assert decode(frame) is instance  # a decode hit
        assert len(serialization._ENCODE_CACHE) <= 512
        assert len(serialization._DECODE_CACHE) <= 512
