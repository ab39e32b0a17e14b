"""Golden wire vectors: one value per type tag, plus nested objects.

Captured from the codec before its inner loops were rewritten.  Every
signature and appraisal digest in a federation covers these bytes, so a
change here is a wire-format change, never a refactor.
"""

from __future__ import annotations

import pytest

from repro.agents.itinerary import Stop
from repro.naming.urn import URN
from repro.util.serialization import decode, encode

WHO = URN.parse("urn:agent:alice/tourist-7")
WHO_HEX = (
    "4f14726570726f2e6e616d696e672e75726e3a55524e1b531975726e3a6167656e74"
    "3a616c6963652f746f75726973742d37"
)

GOLDEN = [
    (None, "4e"),
    (True, "54"),
    (False, "46"),
    (300, "49d804"),
    (-(2**70), "49ffffffffffffffffffff01"),
    (1.5, "443ff8000000000000"),
    ("héllo ✓", "530a68c3a96c6c6f20e29c93"),
    (b"\x00\xff\x10", "420300ff10"),
    ([1, "a"], "4c024902530161"),
    ((None, 2.25), "55024e444002000000000000"),
    ({"b": 1, "a": [2]}, "4d025301614c0149045301624902"),
    (WHO, WHO_HEX),
    (
        {"at": Stop("urn:server:s1", "visit"), "who": WHO, "seen": (WHO,)},
        "4d03530261744f1b726570726f2e6167656e74732e6974696e65726172793a53746f70"
        "284d0253066d6574686f64530576697369745306736572766572530d75726e3a7365"
        "727665723a7331530377686f" + WHO_HEX + "53047365656e5501" + WHO_HEX,
    ),
]

# Set members are encoded in sorted order, so every order the members are
# written in gives the same bytes.  Each case is named by its written order:
# repr() of a set follows the hash seed, which would rename the case per run.
SET_HEX = "450349014906530178"
FROZENSET_HEX = "520242016b4900"
GOLDEN += [
    pytest.param(set(order), SET_HEX, id=f"{{{shown}}}-'{SET_HEX}'")
    for order, shown in [
        ((3, -1, "x"), "3, -1, 'x'"),
        ((3, "x", -1), "3, 'x', -1"),
        (("x", 3, -1), "'x', 3, -1"),
    ]
] + [
    pytest.param(frozenset(order), FROZENSET_HEX, id=f"frozenset({{{shown}}})-'{FROZENSET_HEX}'")
    for order, shown in [((b"k", 0), "b'k', 0"), ((0, b"k"), "0, b'k'")]
]


@pytest.mark.parametrize("value, hex_bytes", GOLDEN, ids=lambda v: repr(v)[:24])
def test_encoding_matches_golden_bytes(value, hex_bytes):
    assert encode(value).hex() == hex_bytes


@pytest.mark.parametrize("value, hex_bytes", GOLDEN, ids=lambda v: repr(v)[:24])
def test_golden_bytes_decode_to_the_value(value, hex_bytes):
    assert decode(bytes.fromhex(hex_bytes)) == value


def test_long_lengths_and_large_ints_take_multi_byte_varints():
    assert encode("x" * 200)[:3].hex() == "53c801"
    assert encode(b"\x00" * 128)[:3].hex() == "428001"
    assert encode(64).hex() == "498001"
    assert encode(-64).hex() == "497f"
