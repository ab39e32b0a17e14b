"""Tests for URN global names."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NamingError
from repro.naming.urn import URN
from repro.util.serialization import decode, encode


class TestParse:
    def test_basic(self):
        urn = URN.parse("urn:agent:umn.edu/anand/shopper-17")
        assert urn.kind == "agent"
        assert urn.authority == "umn.edu"
        assert urn.local == "anand/shopper-17"
        assert str(urn) == "urn:agent:umn.edu/anand/shopper-17"

    def test_case_normalization(self):
        urn = URN.parse("urn:Agent:UMN.EDU/Shopper")
        assert urn.kind == "agent"
        assert urn.authority == "umn.edu"
        assert urn.local == "Shopper"  # local part is case-preserving

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-urn",
            "urn:agent",
            "urn:agent:no-local-part",
            "urn::authority/x",
            "urn:agent:/x",
            "http:agent:a/x",
            "urn:agent:a/x y",  # space in local
            "urn:ag ent:a/x",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(NamingError):
            URN.parse(bad)

    def test_non_string_rejected(self):
        with pytest.raises(NamingError):
            URN.parse(12345)  # type: ignore[arg-type]


class TestConstruction:
    def test_make(self):
        urn = URN.make("Server", "Store.COM", "front-1")
        assert str(urn) == "urn:server:store.com/front-1"

    def test_child(self):
        parent = URN.parse("urn:agent:umn.edu/parent")
        child = parent.child("worker-0")
        assert str(child) == "urn:agent:umn.edu/parent/worker-0"

    def test_invalid_fields_rejected(self):
        with pytest.raises(NamingError):
            URN(kind="", authority="a.com", local="x")
        with pytest.raises(NamingError):
            URN(kind="agent", authority="a_com", local="x")
        with pytest.raises(NamingError):
            URN(kind="agent", authority="a.com", local="x//y")


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = URN.parse("urn:agent:umn.edu/x")
        b = URN.parse("urn:agent:umn.edu/x")
        c = URN.parse("urn:agent:umn.edu/y")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_usable_as_dict_key(self):
        table = {URN.parse("urn:resource:s.com/buf"): 1}
        assert table[URN.parse("urn:resource:s.com/buf")] == 1

    def test_serialization_roundtrip(self):
        urn = URN.parse("urn:resource:store.com/quote-db")
        assert decode(encode(urn)) == urn

    def test_text_is_built_once(self):
        urn = URN.make("Agent", "UMN.edu", "x/y")
        assert str(urn) is str(urn)
        assert str(urn) == "urn:agent:umn.edu/x/y"
        assert str(urn.child("z")) == "urn:agent:umn.edu/x/y/z"
        # The stored text takes no part in the value.
        assert repr(urn) == "URN(kind='agent', authority='umn.edu', local='x/y')"
        assert urn == URN.parse("urn:agent:umn.edu/x/y")
        assert hash(urn) == hash(("agent", "umn.edu", "x/y"))

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["agent", "server", "resource", "principal"]),
        st.from_regex(r"[a-z0-9]([a-z0-9.-]{0,10}[a-z0-9])?", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9._~-]{1,12}(/[A-Za-z0-9._~-]{1,8}){0,2}", fullmatch=True),
    )
    def test_property_parse_format_roundtrip(self, kind, authority, local):
        urn = URN.make(kind, authority, local)
        assert URN.parse(str(urn)) == urn
