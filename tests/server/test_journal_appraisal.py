"""Departure journal × appraisal chain: recovery must not re-seal.

The appraisal link is sealed *before* the departure is journaled, so
every retry, crash-recovery re-offer and dedup-absorbed retransmission
ships the identical sealed image — exactly one link per hop, never a
double-appended one, and never a tip that trips the receiver's replay
record.  The one legitimate rewrite is recovery's return-home diversion,
which replaces (not appends) the sender's own tip via ``reseal_tip``.
"""

from __future__ import annotations

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.integrity import APPRAISAL_ATTRIBUTE
from repro.credentials.rights import Rights
from repro.net.adversary import Adversary
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy


class AckDropper(Adversary):
    """Deterministically delete the first ``count`` frames of ``kind``."""

    def __init__(self, kind: str, count: int = 1) -> None:
        self.kind = kind
        self.remaining = count
        self.dropped = 0

    def intercept(self, message, now):
        if message.kind == self.kind and self.remaining > 0:
            self.remaining -= 1
            self.dropped += 1
            return []
        return [message]


@register_trusted_agent_class
class JournalHopper(Agent):
    def __init__(self) -> None:
        self.hops: list[str] = []

    def run(self):
        if self.hops:
            self.go(self.hops.pop(0), "run")
        self.complete()


def hopper_to(dest: str) -> JournalHopper:
    agent = JournalHopper()
    agent.hops = [dest]
    return agent


def retry_kwargs(**overrides):
    kw = {
        "transfer_timeout": 4.0,
        "transfer_retry": RetryPolicy(attempts=4, base_delay=1.0, jitter=0.0),
    }
    kw.update(overrides)
    return kw


def admitted_spy(server):
    """Capture every image the server actually starts hosting."""
    admitted = []
    original = server._start_resident
    server._start_resident = lambda img, *rest: (admitted.append(img),
                                                 original(img, *rest))[1]
    return admitted


def test_receiver_crash_mid_admit_no_double_link():
    """The receiver dies before the handshake lands and restarts between
    retries.  Every re-offer replays the journaled image verbatim: the
    chain the survivor finally admits has exactly one link for the hop —
    sealed once, despite several attempts."""
    bed = Testbed(2, server_kwargs=retry_kwargs())
    home, dest = bed.home, bed.servers[1]
    bed.faults().crash(dest, at=0.001, restart_at=3.0)
    admitted = admitted_spy(dest)
    image = bed.launch(hopper_to(dest.name), Rights.all())
    bed.run(detect_deadlock=False)

    assert home.stats["transfer_retries"] >= 1  # the crash was felt
    assert dest.stats["agents_hosted"] == 1
    assert home.integrity.stats["links_sealed"] == 1  # once, not per attempt
    assert home.integrity.stats["links_resealed"] == 0
    assert len(admitted) == 1
    chain = admitted[0].attributes[APPRAISAL_ATTRIBUTE]
    assert len(chain) == 1 == len(admitted[0].trace)
    assert (chain[0].hop, chain[0].origin, chain[0].destination) == (
        0, home.name, dest.name
    )
    assert dest.stats["transfers_refused_integrity"] == 0
    assert dest.integrity.stats["appraisals_verified"] == 1
    assert len(home._journal) == 0  # departure resolved


def test_sender_crash_recovery_reoffers_sealed_image_verbatim():
    """Lost ack + sender crash: recovery re-offers under the same
    transfer id and the receiver answers from dedup.  No second seal, no
    replay alarm — the journaled bytes ARE the sealed bytes."""
    bed = Testbed(2, server_kwargs=retry_kwargs(
        transfer_retry=RetryPolicy(attempts=4, base_delay=2.0, jitter=0.0),
    ))
    home, dest = bed.home, bed.servers[1]
    tap = AckDropper("sec.data", count=1)
    bed.network.link(dest.name, home.name).add_tap(tap)
    image = bed.launch(hopper_to(dest.name), Rights.all())
    bed.faults().crash(home, at=1.0, restart_at=10.0)
    bed.run(detect_deadlock=False)

    assert tap.dropped == 1
    assert home.stats["recoveries_delivered"] == 1
    assert dest.stats["agents_hosted"] == 1
    assert dest.stats["transfers_duplicate_suppressed"] == 1
    assert home.integrity.stats["links_sealed"] == 1
    assert home.integrity.stats["links_resealed"] == 0
    # The dedup-cached refusal/accept path never re-ran verification, so
    # the replay record saw one admission — no false "replayed" alarm.
    assert dest.stats["transfers_refused_integrity"] == 0
    assert dest.integrity.stats["appraisals_verified"] == 1
    assert len(home._journal) == 0


def test_recovery_return_home_reseals_tip_not_appends():
    """Destination stays dead across a sender crash: recovery diverts
    the journaled agent home.  That is a *different* hop than sealed, so
    the tip is replaced in place — same hop index, new destination —
    and the chain still carries one link per hop."""
    bed = Testbed(2, server_kwargs=retry_kwargs(
        transfer_timeout=3.0,
        transfer_retry=RetryPolicy(attempts=2, base_delay=1.0, jitter=0.0),
    ))
    home, dest = bed.home, bed.servers[1]
    dest.endpoint.close()  # dead for the whole test
    admitted = admitted_spy(home)
    image = bed.launch(hopper_to(dest.name), Rights.all())
    bed.faults().crash(home, at=1.0, restart_at=8.0)
    bed.run(detect_deadlock=False)

    assert home.stats["recoveries_returned_home"] == 1
    assert home.integrity.stats["links_sealed"] == 1
    assert home.integrity.stats["links_resealed"] == 1
    # The relaunched copy carries a single link for hop 0, resealed for
    # the home site (never two links for one hop).
    relaunched = [
        img for img in admitted
        if img.attributes.get(APPRAISAL_ATTRIBUTE)
    ]
    assert len(relaunched) == 1
    chain = relaunched[0].attributes[APPRAISAL_ATTRIBUTE]
    assert len(chain) == 1
    assert (chain[0].hop, chain[0].origin, chain[0].destination) == (
        0, home.name, home.name
    )
    sts = [
        r.status
        for s in bed.servers
        for r in s.domain_db.records_of(image.name)
    ]
    assert sts.count("completed") == 1 and sts.count("running") == 0
