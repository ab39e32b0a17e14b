"""The codec's canonicality, as the appraisal digest relies on it.

A receiver hashes the byte span that carried an agent's state instead of
encoding the decoded state again.  That is sound only if the span is
exactly ``encode(state)``: one accepted encoding per value, and
re-encoding a decoded value gives the bytes it came from.  The seed
comes from ``REPRO_STRESS_SEED``, so CI repeats the properties under
several seeds.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tests.chaos.common import STRESS_SEED

from repro.util.serialization import (
    Verbatim,
    canonical_digest,
    decode,
    encode,
    register_serializable,
)


class Envelope:
    """A registered object whose state dict holds the drawn value, the
    way an agent image's state dict holds the agent's state."""

    def __init__(self, state: object, tag: str) -> None:
        self.state = state
        self.tag = tag

    def to_state(self) -> dict:
        return {"state": self.state, "tag": self.tag}

    @classmethod
    def from_state(cls, state: dict) -> "Envelope":
        return cls(state["state"], state["tag"])


register_serializable(Envelope, "tests.util:Envelope")

_ints = st.integers() | st.integers(min_value=-(2**300), max_value=2**300)
_hashable = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | st.floats(allow_nan=False)
    | st.text()
    | st.binary(max_size=300),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=4),
    max_leaves=8,
)
values = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | st.floats()
    | st.text()
    | st.binary(max_size=300),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.sets(_hashable, max_size=5)
    | st.frozensets(_hashable, max_size=5)
    | st.dictionaries(_hashable, inner, max_size=5),
    max_leaves=30,
)


@seed(STRESS_SEED)
@settings(max_examples=300, deadline=None)
@given(value=values)
def test_decoding_reencodes_bit_for_bit(value):
    raw = encode(value)
    assert encode(decode(raw)) == raw


@seed(STRESS_SEED)
@settings(max_examples=300, deadline=None)
@given(value=values, tag=st.text(max_size=8))
def test_state_span_digest_is_the_value_digest(value, tag):
    for outer in ({"state": value, "tag": tag}, Envelope(value, tag)):
        raw = encode(outer)
        spans: dict = {}
        decode(raw, spans=spans)
        start, end = spans["state"]
        assert hashlib.sha256(raw[start:end]).digest() == canonical_digest(value)
        assert raw[start:end] == encode(value)


@seed(STRESS_SEED)
@settings(max_examples=200, deadline=None)
@given(value=values, tag=st.text(max_size=8))
def test_verbatim_embedding_equals_encoding_in_place(value, tag):
    embedded = Envelope(Verbatim(encode(value)), tag)
    assert encode(embedded) == encode(Envelope(value, tag))
    assert encode({"state": Verbatim(encode(value)), "tag": tag}) == encode(
        {"state": value, "tag": tag}
    )
