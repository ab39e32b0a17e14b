"""Unit coverage for the appraisal chain and itinerary commitments.

The red-team suite drives whole worlds; these tests pin the primitives —
link sealing/verification, genesis anchoring, tip resealing, the wire
whitelist and commitment MACs — in isolation, where each rejection
reason can be produced surgically.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.agents.integrity import (
    APPRAISAL_ATTRIBUTE,
    AppraisalLink,
    IntegrityAuthority,
    genesis_tag,
    state_digest,
)
from repro.agents.itinerary import Itinerary, ItineraryCommitment
from repro.agents.transfer import AgentImage
from repro.credentials.rights import Rights
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.mac import HmacKey
from repro.errors import (
    AgentAttributeError,
    AgentIntegrityError,
    SerializationError,
)
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode

A = "urn:server:site.net/a"
B = "urn:server:site.net/b"
C = "urn:server:site.net/c"


@pytest.fixture
def hosts(env):
    """Integrity authorities for three servers under one CA."""

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

    return build(A, 11), build(B, 22), build(C, 33)


@pytest.fixture
def image(env):
    credentials = env.credentials(Rights.all())
    return AgentImage(
        name=credentials.agent,
        credentials=credentials,
        class_name="Probe",
        source="",
        state={"n": 1},
        entry_method="run",
        home_site=A,
    )


def sealed_hop(authority, image, destination):
    """One honest departure: stamp the hop, then seal it."""
    return authority.seal_departure(image.with_hop(authority.name),
                                    destination)


def test_honest_hop_verifies_and_replay_is_refused(hosts, image):
    a, b, _ = hosts
    outgoing = sealed_hop(a, image, B)
    tip = b.verify_arrival(outgoing, peer=A)
    assert tip == outgoing.attributes[APPRAISAL_ATTRIBUTE][-1].tag()
    b.remember(tip)
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(outgoing, peer=A)
    assert exc.value.context["reason"] == "replayed"


def test_a_sealed_link_is_digested_once(hosts, image, monkeypatch):
    """The signed link reuses the tag its unsigned draft computed for the
    signature: sealing and then verifying the hop digests its body once."""
    from repro.agents import integrity

    a, b, _ = hosts
    bodies = []
    digest = integrity.canonical_digest

    def counting(value, *args, **kwargs):
        if isinstance(value, dict) and value.keys() == set(
            AppraisalLink.__dataclass_fields__
        ) - {"certificate", "signature"}:
            bodies.append(value)
        return digest(value, *args, **kwargs)

    monkeypatch.setattr(integrity, "canonical_digest", counting)
    integrity._link_tag.cache_clear()
    hopped = sealed_hop(a, image, B)
    b.verify_arrival(hopped, A)
    [link] = hopped.attributes[APPRAISAL_ATTRIBUTE]
    assert bodies == [link.body()]


def test_each_host_rsa_verifies_a_link_once(hosts, image, monkeypatch):
    """Link verdicts are per host: a link one host verified is RSA-checked
    again at the next host, once, and not when the agent comes back."""
    a, b, c = hosts
    checked: list[bytes] = []
    verify = PublicKey.verify

    def counting(key, digest, signature):
        checked.append(signature)
        return verify(key, digest, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)

    def arrive(sender, receiver, arriving):
        outgoing = sealed_hop(sender, arriving, receiver.name)
        checked.clear()
        receiver.verify_arrival(outgoing, peer=sender.name)
        return outgoing, list(checked)

    at_b, seen_at_b = arrive(a, b, image)
    first = at_b.attributes[APPRAISAL_ATTRIBUTE][0].signature
    assert seen_at_b.count(first) == 1
    at_c, seen_at_c = arrive(b, c, at_b)
    assert seen_at_c.count(first) == 1  # B's verdict did not travel to C
    back_at_b, seen_again_at_b = arrive(c, b, at_c)
    assert first not in seen_again_at_b  # B remembers its own verdict
    *_, newest = back_at_b.attributes[APPRAISAL_ATTRIBUTE]
    assert seen_again_at_b.count(newest.signature) == 1


def test_a_host_does_not_rsa_verify_its_own_seal(hosts, image, monkeypatch):
    """On A → B → A, A's arrival check trusts the link A signed itself and
    RSA-verifies only B's."""
    a, b, _ = hosts
    checked: list[bytes] = []
    verify = PublicKey.verify

    def counting(key, digest, signature):
        checked.append(signature)
        return verify(key, digest, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)
    at_b = sealed_hop(a, image, B)
    b.verify_arrival(at_b, peer=A)
    back = sealed_hop(b, at_b, A)
    own, theirs = back.attributes[APPRAISAL_ATTRIBUTE]
    checked.clear()
    a.verify_arrival(back, peer=B)
    assert own.signature not in checked
    assert checked.count(theirs.signature) == 1
    # Only the exact (key, tag, signature) A made is trusted: its
    # signature on another body still goes to RSA, and fails.
    forged = dataclasses.replace(own, timestamp=own.timestamp + 1.0)
    assert not a.verdicts.signature_ok(
        forged.certificate.public_key, forged.tag(), forged.signature
    )
    assert own.signature in checked


def test_state_tamper_after_seal_is_detected(hosts, image):
    a, b, _ = hosts
    outgoing = sealed_hop(a, image, B)
    doctored = dataclasses.replace(outgoing, state={"n": 666})
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(doctored, peer=A)
    assert exc.value.context["reason"] == "state-tampered"


def test_credentials_are_covered_by_the_seal(env, hosts, image):
    a, b, _ = hosts
    outgoing = sealed_hop(a, image, B)
    swapped = dataclasses.replace(
        outgoing, credentials=env.credentials(Rights.all())
    )
    # The swapped chain names a different agent, but even matching names
    # would fail: the digest covers the credentials as forwarded.
    assert state_digest(swapped) != state_digest(outgoing)
    with pytest.raises(AgentIntegrityError):
        b.verify_arrival(swapped, peer=A)


def test_chain_transplant_breaks_on_genesis(env, hosts, image):
    """A valid chain moved wholesale onto another agent's image fails
    link 0's anchor — the genesis tag binds agent identity and home."""
    a, b, _ = hosts
    outgoing = sealed_hop(a, image, B)
    other_creds = env.credentials(Rights.all())
    victim = dataclasses.replace(
        outgoing, name=other_creds.agent, credentials=other_creds
    )
    # Re-digest so the state check passes; the transplant must die on
    # the chain anchor instead.
    chain = victim.attributes[APPRAISAL_ATTRIBUTE]
    fixed = dataclasses.replace(chain[0], state_digest=state_digest(victim))
    fixed = dataclasses.replace(fixed, signature=a.keys.private.sign(fixed.tag()))
    victim = victim.with_attributes(**{APPRAISAL_ATTRIBUTE: (fixed,)})
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(victim, peer=A)
    assert exc.value.context["reason"] == "chain-broken"
    assert genesis_tag(str(victim.name), A) != genesis_tag(str(image.name), A)


def test_route_violation_is_named(hosts, image):
    """Hop i's sealed destination must be hop i+1's sealer."""
    a, b, c = hosts
    first = sealed_hop(a, image, B)  # sealed for B...
    second = sealed_hop(c, first, B)  # ...but C forwarded it
    with pytest.raises(AgentIntegrityError) as exc:
        b.verify_arrival(second, peer=C)
    assert exc.value.context["reason"] == "route-violation"


def test_reseal_tip_only_rewrites_own_link(hosts, image):
    a, b, _ = hosts
    outgoing = sealed_hop(a, image, B)
    assert b.reseal_tip(outgoing, C) is outgoing  # not B's tip to rewrite
    redirected = a.reseal_tip(outgoing, C)
    chain = redirected.attributes[APPRAISAL_ATTRIBUTE]
    assert len(chain) == 1  # replaced, never appended
    assert chain[0].destination == C
    assert chain[0].hop == 0


def test_appraisal_link_wire_round_trip(hosts, image):
    a, _, _ = hosts
    link = sealed_hop(a, image, B).attributes[APPRAISAL_ATTRIBUTE][0]
    assert decode(encode(link)) == link


def test_appraisal_link_from_state_validates(hosts, image):
    a, _, _ = hosts
    link = sealed_hop(a, image, B).attributes[APPRAISAL_ATTRIBUTE][0]
    good = link.to_state()
    for corruption in (
        {"hop": -1},
        {"hop": True},
        {"origin": ""},
        {"destination": "x" * 600},
        {"state_digest": b""},
        {"prev_tag": b"y" * 65},
        {"signature": b""},
        {"timestamp": 3},
    ):
        with pytest.raises(SerializationError):
            AppraisalLink.from_state({**good, **corruption})


def test_itinerary_commitment_round_trip_and_wrong_key(env):
    key = HmacKey(b"home-secret")
    commitment = ItineraryCommitment.issue(
        key, agent="urn:agent:x/a", home=A,
        stops=((B, "run"), (C, "run")), issued_at=1.5,
    )
    assert decode(encode(commitment)) == commitment
    assert commitment.verify(key)
    assert not commitment.verify(HmacKey(b"attacker"))


def test_off_plan_visit_fails_home_reappraisal(hosts, image):
    a, _, _ = hosts
    planned = dataclasses.replace(
        image, state={"itinerary": Itinerary.tour([B])}
    )
    committed = a.commit_itinerary(planned)
    returned = dataclasses.replace(committed, trace=(A, C))  # C is off-plan
    with pytest.raises(AgentIntegrityError) as exc:
        a.verify_return(returned, peer=C)
    assert exc.value.context["reason"] == "itinerary-violation"
    # The same trace inside the plan (plus home) is fine.
    a.verify_return(dataclasses.replace(committed, trace=(A, B)), peer=B)
    assert a.stats["itineraries_verified"] == 1


def test_attribute_whitelist_accepts_the_protocol_shapes(hosts, image):
    a, _, _ = hosts
    outgoing = sealed_hop(a, image, B).with_attributes(
        transfer_id="t-1",
        trace_ctx={"trace_id": "ab", "span_id": "cd"},
        ns_token="tok",
        returned_home=True,
        note="small scalar",
    )
    assert AgentImage.from_attributes(outgoing.attributes) is outgoing.attributes


@pytest.mark.parametrize(
    "attributes",
    [
        "not-a-dict",
        {f"k{i}": i for i in range(33)},  # too many keys
        {"x" * 65: 1},  # key too long
        {"": 1},
        {"transfer_id": 12345},
        {"transfer_id": ""},
        {"trace_ctx": {"k": 1}},
        {"trace_ctx": {str(i): "v" for i in range(9)}},
        {"ns_token": ""},
        {"returned_home": "yes"},
        {"appraisal": []},  # must be a tuple of links
        {"appraisal": ("junk",)},
        {"itinerary_commitment": {"forged": True}},
        {"blob": "x" * 4097},  # oversized scalar
        {"nested": {"dict": "values"}},  # structure outside reserved keys
        {"listy": [1, 2]},
    ],
)
def test_attribute_whitelist_refuses(attributes):
    with pytest.raises(AgentAttributeError):
        AgentImage.from_attributes(attributes)
