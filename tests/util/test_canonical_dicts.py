"""Canonical encoding is enforced on *decode*, not just encode.

The encoder always sorts dict entries by their encoded key bytes (and
set items by their encoding) and writes minimal varints; the decoder
refuses anything else.  This closes the duplicate-key
ambiguity an attacker could otherwise smuggle past digest-based checks:
two wire forms decoding to the same mapping would have different
digests, and a duplicated key would let the last entry silently shadow
the one a verifier hashed.
"""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.util.serialization import canonical_digest, decode, encode


def test_round_trip_is_unaffected():
    value = {"kk1": 1, "kk2": [True, None, b"x"], "a": {"z": 0.5}}
    assert decode(encode(value)) == value


def test_duplicate_keys_are_refused():
    raw = encode({"kk1": 1, "kk2": 2})
    forged = raw.replace(b"kk2", b"kk1")
    with pytest.raises(SerializationError, match="non-canonical"):
        decode(forged)


def test_unsorted_keys_are_refused():
    raw = encode({"kk1": 1, "kk2": 2})
    # Renaming the *first* key to sort after the second breaks the
    # strictly-increasing key order the encoder guarantees.
    forged = raw.replace(b"kk1", b"kk3")
    with pytest.raises(SerializationError, match="non-canonical"):
        decode(forged)


def test_digest_has_one_preimage_per_mapping():
    """The property the appraisal chain leans on: equal mappings have
    equal digests, and the only wire form that decodes to a mapping is
    the canonical one the digest covers."""
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert canonical_digest(a) == canonical_digest(b)
    assert encode(a) == encode(b)


@pytest.mark.parametrize(
    "raw",
    [
        b"I\x80\x00",  # 0 with a redundant zero group
        b"I\x82\x00",  # 1 the same way
        b"S\x81\x00a",  # a one-byte string behind a padded length
        b"L\x80\x00",  # an empty list behind a padded count
    ],
)
def test_non_minimal_varints_are_refused(raw):
    with pytest.raises(SerializationError, match="non-minimal varint"):
        decode(raw)


@pytest.mark.parametrize("tag", [b"E", b"R"])
def test_unsorted_set_items_are_refused(tag):
    assert decode(tag + b"\x02I\x02I\x04") == {1, 2}
    with pytest.raises(SerializationError, match="non-canonical set"):
        decode(tag + b"\x02I\x04I\x02")


@pytest.mark.parametrize("tag", [b"E", b"R"])
def test_duplicate_set_items_are_refused(tag):
    with pytest.raises(SerializationError, match="non-canonical set"):
        decode(tag + b"\x02I\x02I\x02")


def test_every_accepted_encoding_re_encodes_bit_for_bit():
    for raw in (b"I\x80\x01", b"E\x02I\x02I\x04", encode({3, "x", b"y"})):
        assert encode(decode(raw)) == raw


def test_unhashable_keys_and_items_are_serialization_errors():
    # A list as a dict key or set item is well-formed bytes but no value.
    with pytest.raises(SerializationError, match="unhashable"):
        decode(b"M\x01L\x00N")
    with pytest.raises(SerializationError, match="unhashable"):
        decode(b"E\x01L\x00")
