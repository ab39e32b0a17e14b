"""Red team: what quarantine and token revocation buy after detection.

Detection is only half the defence — the other half is that a caught
host stops costing anything (fast refusals before any decode work) and
that the tampered agent's carried capability tokens die federation-wide
(one holder-epoch bump).
"""

from __future__ import annotations

from repro.core.token import TokenAuthority
from repro.credentials.rights import Rights
from repro.net.faults import capture, tamper_state

from tests.redteam.campaign import hopper


def test_quarantined_host_gets_fast_refusal_on_its_next_offer(world):
    w = world(3)
    home, s1, s2 = w.servers
    w.faults().compromise(s1, tamper_state(evil=True), at=0.0, duration=3.0)
    w.launch(hopper(s1.name, s2.name), Rights.all())
    w.run(detect_deadlock=False)
    assert s2.stats["transfers_refused_integrity"] == 1
    assert s2.integrity.quarantine.blocked_name(s1.name)

    # s1 is honest again (the compromise expired) and forwards a second,
    # perfectly sealed agent — but it is inside its quarantine window,
    # so s2 refuses before spending any verification work on the offer.
    verified_before = s2.integrity.stats["appraisals_verified"]
    failed_before = s2.integrity.stats["appraisals_failed"]
    w.launch(hopper(s1.name, s2.name), Rights.all())
    w.run(detect_deadlock=False)
    assert s2.stats["transfers_refused_quarantined"] == 1
    assert s2.audit.records(operation="atp.quarantine", allowed=False)
    assert s2.integrity.stats["appraisals_verified"] == verified_before
    assert s2.integrity.stats["appraisals_failed"] == failed_before
    assert s2.stats["agents_hosted"] == 0


def test_integrity_reject_stales_the_agents_carried_tokens(world):
    """Satellite of PR 6's capability tokens: an integrity rejection
    bumps the agent's holder epoch, so every token minted to it — on any
    server, carried in any copy — fails the O(1) freshness check.

    Uses a replay (not a live tamper) so the only epoch bump between
    mint and check is the integrity layer's: the honest agent completed,
    tokens were re-minted afterwards, and then a host replays its stale
    image.
    """
    w = world(3)
    home, s1, s2 = w.servers
    controller = w.faults().compromise(s1, capture(), at=0.0)
    image = w.launch(hopper(s1.name, s2.name), Rights.all())
    w.run(detect_deadlock=False)
    assert s2.stats["agents_hosted"] == 1

    authority = TokenAuthority(
        key=b"redteam-token-key-0123456789abcd", registry=w.epochs
    )
    token = authority.mint(
        grantee=str(image.name),
        resource="urn:resource:store.net/buf",
        resource_kind="Buffer",
        iface_digest="digest",
        mask=0b11,
        ring=1,
        confine=False,
        lease=None,
        now=w.clock.now(),
    )
    assert authority.is_fresh(token, w.clock.now())
    cell = w.epochs.holder_cell(str(image.name))
    epoch_at_mint = cell.value

    w.faults().replay_capture(s1, controller, at=w.clock.now() + 10.0)
    w.run(detect_deadlock=False)
    assert s2.stats["transfers_refused_integrity"] == 1
    assert cell.value == epoch_at_mint + 1  # exactly the integrity bump
    assert not authority.is_fresh(token, w.clock.now())
    assert authority.stats["stale_epoch"] == 1
