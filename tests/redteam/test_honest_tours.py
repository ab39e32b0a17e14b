"""Control group: honest worlds must pay nothing but the seals.

The campaign is only meaningful if the integrity layer never cries wolf:
honest multi-hop tours — including lossy ones, where retries, dedup hits
and crash-recovery re-offers abound — must complete exactly once with
zero integrity refusals and a chain that verifies end-to-end at home.
"""

from __future__ import annotations

from repro.agents.integrity import APPRAISAL_ATTRIBUTE, COMMITMENT_ATTRIBUTE
from repro.agents.itinerary import Itinerary
from repro.credentials.rights import Rights
from repro.util.retry import RetryPolicy

from tests.redteam.campaign import RedTourist, retry_kwargs


def statuses_of(bed, agent) -> list[str]:
    out: list[str] = []
    for server in bed.servers:
        out.extend(r.status for r in server.domain_db.records_of(agent))
    return out


def touring(*servers: str) -> RedTourist:
    agent = RedTourist()
    agent.itinerary = Itinerary.tour(list(servers))
    return agent


def test_honest_tour_chain_verifies_end_to_end(world):
    """Lossless 4-hop round trip: every hop appraised, the commitment
    verified on return, and the returned chain replays the whole route."""
    w = world(4)
    home, s1, s2, s3 = w.servers
    image = w.launch(touring(s1.name, s2.name, s3.name, home.name),
                     Rights.all())
    # Spy on homecomings only — the launch residency already started.
    returned = []
    original_start = home._start_resident
    home._start_resident = lambda img, *rest: (returned.append(img),
                                               original_start(img, *rest))[1]
    w.run(detect_deadlock=False)

    sts = statuses_of(w.bed, image.name)
    assert sts.count("completed") == 1 and sts.count("running") == 0
    for server in (s1, s2, s3, home):
        assert server.stats["transfers_refused_integrity"] == 0
        assert server.integrity.stats["appraisals_verified"] == 1
        assert server.integrity.stats["appraisals_failed"] == 0
    assert home.integrity.stats["itineraries_committed"] == 1
    assert home.integrity.stats["itineraries_verified"] == 1

    # The image that came home carries the full, linked travel record.
    assert len(returned) == 1
    final = returned[0]
    chain = final.attributes[APPRAISAL_ATTRIBUTE]
    assert [link.origin for link in chain] == list(final.trace)
    assert [link.origin for link in chain] == [
        home.name, s1.name, s2.name, s3.name
    ]
    assert [link.destination for link in chain] == [
        s1.name, s2.name, s3.name, home.name
    ]
    assert [link.hop for link in chain] == [0, 1, 2, 3]
    assert COMMITMENT_ATTRIBUTE in final.attributes

    # And the whole journey reads as one causally ordered trace.
    spans = w.recorder.trace_of(image.name)
    departs = [s for s in spans if s.name == "transfer.depart"]
    assert [d.attributes["server"] for d in departs] == [
        home.name, s1.name, s2.name, s3.name
    ]
    w.recorder.assert_causal_order(departs)


def test_honest_five_hop_tour_at_10pct_loss_is_exactly_once(world):
    """The acceptance scenario: 10% frame loss, full retry machinery,
    appraisal on everywhere — exactly-once conservation holds and the
    integrity layer rejects nothing (retries are not replays)."""
    w = world(
        6,
        loss_rate=0.1,
        server_kwargs=retry_kwargs(
            transfer_timeout=10.0,
            transfer_retry=RetryPolicy(attempts=6, base_delay=1.0,
                                       jitter=0.25),
        ),
    )
    home = w.home
    stops = [s.name for s in w.servers[1:]] + [home.name]
    image = w.launch(touring(*stops), Rights.all())
    w.run(detect_deadlock=False)

    sts = statuses_of(w.bed, image.name)
    assert sts.count("running") == 0  # nothing stranded, anywhere
    assert sts.count("completed") >= 1  # the tour always finishes
    hosted = sum(s.stats["agents_hosted"] for s in w.servers)
    out = sum(s.stats["transfers_out"] for s in w.servers)
    assert hosted - out == sts.count("completed")
    for server in w.servers:
        assert server.stats["transfers_refused_integrity"] == 0
        assert server.integrity.stats["appraisals_failed"] == 0
    assert home.integrity.stats["itineraries_committed"] == 1
    # If the tour physically made it back, the homecoming re-appraisal
    # must have verified the commitment (seed sweeps may end a lossy
    # tour early via the skip policy — then there is nothing to verify).
    if home.stats["transfers_in"] > 0:
        assert home.integrity.stats["itineraries_verified"] >= 1
