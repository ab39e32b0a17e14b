"""The placement ladder: one offer-then-relaunch path for a displaced agent.

Journal recovery, re-homing and drain all place an agent that no
resident holds through ``AgentServer._place``.  Here the network is
stubbed out: each offer's answer (accept, refuse, or a ``NetworkError``)
and the admission verdict are drawn, and the ladder's event log is
checked against its contract.  ``REPRO_STRESS_SEED`` seeds the draws,
so CI's chaos job explores a different set of ladders per seed.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from tests.chaos.common import STRESS_SEED

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.transfer import capture_image
from repro.credentials.rights import Rights
from repro.errors import CredentialExpiredError, NetworkError
from repro.server.testbed import Testbed
from repro.util.ids import IdGenerator


@register_trusted_agent_class
class Displaced(Agent):
    def run(self):
        self.complete()


@pytest.fixture(scope="module")
def world():
    """One server and one image, shared by every example."""
    bed = Testbed(1, seed=71)
    image = capture_image(
        Displaced(),
        credentials=bed.credentials_for(Rights.all()),
        entry_method="run",
        home_site=bed.home.name,
    )
    return bed.home, image


@seed(STRESS_SEED)
@settings(max_examples=150, deadline=None)
@given(
    answers=st.lists(
        st.sampled_from(["accept", "refuse", "unreachable"]), max_size=5
    ),
    admitted=st.booleans(),
    with_relaunch=st.booleans(),
)
def test_ladder_contract(world, answers, admitted, with_relaunch):
    server, image = world
    targets = [f"urn:server:site{i}.net/t{i}" for i in range(len(answers))]
    events: list[tuple] = []
    issued: list[str] = []
    ids = IdGenerator("xfer")

    def next_id():
        issued.append(ids.next())
        return issued[-1]

    def offer(offered, target):
        events.append(("offer", target, offered.transfer_id))
        answer = answers[targets.index(target)]
        if answer == "unreachable":
            raise NetworkError(f"{target} unreachable")
        if answer == "refuse":
            return {"status": "refused", "reason": "no room"}
        return {"status": "accepted"}

    def build():
        events.append(("build",))
        return image

    def validate(candidate):
        events.append(("validate", candidate))
        if not admitted:
            raise CredentialExpiredError("expired")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server, "_transfer_ids", SimpleNamespace(next=next_id))
        patch.setattr(server, "_offer_image", offer)
        patch.setattr(server.admission, "validate", validate)
        patch.setattr(
            server, "_start_resident", lambda s: events.append(("start", s))
        )
        # Never raises: any ReproError escaping here fails the example.
        outcome, where = server._place(
            server._sealed_offers(image, targets),
            build if with_relaunch else None,
        )

    offers = [e for e in events if e[0] == "offer"]
    # Offers go in order and stop at the first accept.
    stop = answers.index("accept") + 1 if "accept" in answers else len(answers)
    assert [e[1] for e in offers] == targets[:stop]
    # A transfer id exists only for an offer that was made.
    assert [e[2] for e in offers] == issued
    assert len(set(issued)) == len(issued)
    rest = events[len(offers):]
    assert events[:len(offers)] == offers
    if "accept" in answers:
        assert (outcome, where) == ("placed", targets[stop - 1])
        assert rest == []
    elif not with_relaunch:
        assert outcome == "stranded"
        assert rest == []
    elif admitted:
        # Built after the last failed offer, validated, then started.
        assert (outcome, where) == ("relaunched", server.name)
        assert rest == [("build",), ("validate", image), ("start", image)]
    else:
        assert outcome == "stranded"
        assert "relaunch refused" in where
        assert rest == [("build",), ("validate", image)]
    if outcome == "stranded":
        # The reason names every target that failed.
        assert all(target in where for _, target, _ in offers)
