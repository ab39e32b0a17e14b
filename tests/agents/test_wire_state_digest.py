"""The appraisal digest covers the state bytes the wire carries.

The sender encodes an agent's state once and uses those bytes for both
the appraisal seal and the wire image; the receiver digests the byte
span its decode reported.  Both must agree with :func:`state_digest`
computed from the value, and the receiver must judge the bytes it was
handed, not anything remembered.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.agents.integrity import (
    APPRAISAL_ATTRIBUTE,
    IntegrityAuthority,
    state_digest,
)
from repro.agents.transfer import AgentImage, decode_image, encode_image
from repro.credentials.rights import Rights
from repro.crypto.keys import KeyPair
from repro.errors import AgentIntegrityError, TransferError
from repro.util.rng import make_rng
from repro.util.serialization import encode

A = "urn:server:site.net/a"
B = "urn:server:site.net/b"


@pytest.fixture
def hosts(env):
    def build(name: str, salt: int) -> IntegrityAuthority:
        keys = KeyPair.generate(make_rng(salt, "host"), bits=512)
        return IntegrityAuthority(
            name=name,
            keys=keys,
            certificate=env.ca.issue(name, keys.public),
            trust_anchor=env.ca,
            clock=env.clock,
            rng=random.Random(salt),
        )

    return build(A, 11), build(B, 22)


@pytest.fixture
def image(env):
    credentials = env.credentials(Rights.all())
    return AgentImage(
        name=credentials.agent,
        credentials=credentials,
        class_name="Probe",
        source="",
        state={"n": 1, "quotes": [("acme", 12.5)], "seen": {b"x", b"y"}},
        entry_method="run",
        home_site=A,
    ).with_hop(A)


def test_wire_bytes_with_a_pre_encoded_state_are_unchanged(image):
    assert encode_image(image, encode(image.state)) == encode(image)
    assert encode_image(image) == encode(image)


def test_decode_reports_the_state_span(image):
    body = encode(image)
    decoded, state_bytes = decode_image(body)
    assert decoded == image
    assert state_bytes == encode(image.state)
    assert state_digest(decoded, state_bytes) == state_digest(image)


def test_decode_image_refuses_other_payloads():
    with pytest.raises(TransferError, match="not an agent image"):
        decode_image(encode({"state": {}}))


def test_sealed_span_verifies_at_the_receiver(hosts, image):
    a, b = hosts
    state_bytes = encode(image.state)
    outgoing = a.seal_departure(image, B, state_bytes)
    assert outgoing.attributes[APPRAISAL_ATTRIBUTE][-1].state_digest == state_digest(image)
    received, span = decode_image(encode_image(outgoing, state_bytes))
    b.verify_arrival(received, A, span)


def test_receiver_judges_the_bytes_it_was_handed(hosts, image):
    a, b = hosts
    outgoing = a.seal_departure(image, B, encode(image.state))
    received, _ = decode_image(encode(outgoing))
    # Bytes of some other state: the decoded value is untouched, but the
    # span is what gets digested, so the seal no longer matches.
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(received, A, encode({"n": 666}))
    assert exc.value.context["reason"] == "state-tampered"


def test_state_rewritten_after_the_seal_is_caught_from_its_span(hosts, image):
    a, b = hosts
    state_bytes = encode(image.state)
    outgoing = a.seal_departure(image, B, state_bytes)
    doctored = dataclasses.replace(outgoing, state={**outgoing.state, "n": 2})
    received, span = decode_image(encode_image(doctored))
    assert received.state["n"] == 2
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(received, A, span)
    assert exc.value.context["reason"] == "state-tampered"
