"""The lease/heartbeat failure detector's state machine, end to end.

Every transition here is driven through real heartbeat traffic over
secure channels — no view poking.  The invariants: silence (and only
silence) walks a peer alive → suspected → confirmed-dead; a heartbeat
inside the suspicion window clears it; and a confirmed corpse is only
revived by a heartbeat carrying a *higher* incarnation (flap safety:
a healed partition does not resurrect a peer that never restarted).
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.server.membership import MembershipConfig
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy


def bed_of(n=3, seed=51, **membership):
    return Testbed(
        n,
        seed=seed,
        self_healing=True,
        membership_config=MembershipConfig(**membership) if membership else None,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=3, base_delay=1.0, jitter=0.0
            ),
        },
    )


def test_steady_state_everyone_stays_alive():
    bed = bed_of()
    bed.run(until=60.0, detect_deadlock=False)
    for server in bed.servers:
        others = [s for s in bed.servers if s is not server]
        assert server.membership.alive_peers() == sorted(
            s.name for s in others
        )
        for other in others:
            view = server.membership.view_of(other.name)
            assert view.state == "alive"
            assert view.state_since == 0.0  # never even suspected
        assert server.membership.stats["heartbeats_sent"] > 0
        assert server.membership.stats["suspicions_cleared"] == 0
        assert server.membership.log == []


def test_silence_walks_suspected_then_confirmed_dead():
    bed = bed_of()
    victim, observer = bed.servers[2], bed.servers[0]
    bed.faults().crash(victim, at=7.0)  # no restart: permanent silence
    bed.run(until=40.0, detect_deadlock=False)
    transitions = [
        (state, peer) for _, state, peer in observer.membership.log
    ]
    assert transitions == [
        ("suspected", victim.name), ("confirmed-dead", victim.name)
    ]
    suspected_at = observer.membership.log[0][0]
    confirmed_at = observer.membership.log[1][0]
    # Timing follows the config: ~5s of silence to suspect, ~10s to
    # confirm (quantised by the 1s sweep and the 2s heartbeat period).
    assert 7.0 + 5.0 <= suspected_at <= 7.0 + 5.0 + 3.0
    assert 7.0 + 10.0 <= confirmed_at <= 7.0 + 10.0 + 3.0
    assert observer.membership.state_of(victim.name) == "confirmed-dead"
    assert not observer.membership.is_alive(victim.name)
    assert victim.name not in observer.membership.alive_peers()
    audit = observer.audit.records(operation="membership.confirm_dead")
    assert len(audit) == 1 and audit[0].target == victim.name


def test_heartbeat_inside_suspicion_window_clears_it():
    bed = bed_of()
    victim, observer = bed.servers[2], bed.servers[0]
    # Cut every link of the victim for 6s: long enough to be suspected
    # (5s), far too short to be confirmed dead (10s).
    bed.faults().named_partition(
        "blip", [victim.name],
        [s.name for s in bed.servers if s is not victim],
        at=5.0, heal_at=11.0,
    )
    bed.run(until=40.0, detect_deadlock=False)
    assert observer.membership.stats["suspicions_cleared"] >= 1
    assert observer.membership.state_of(victim.name) == "alive"
    states = [state for _, state, _ in observer.membership.log]
    assert "confirmed-dead" not in states


def test_confirmed_dead_is_only_revived_by_a_higher_incarnation():
    bed = bed_of()
    victim, observer = bed.servers[2], bed.servers[0]
    # A long partition (no crash!) walks the victim into confirmed-dead
    # at incarnation 0.  When it heals, the victim's heartbeats still
    # carry incarnation 0 -- a corpse talking is a flap, not a revival.
    bed.faults().named_partition(
        "long", [victim.name],
        [s.name for s in bed.servers if s is not victim],
        at=2.0, heal_at=25.0,
    )
    bed.run(until=24.9, detect_deadlock=False)
    assert observer.membership.state_of(victim.name) == "confirmed-dead"
    assert observer.membership.stats["peer_revivals"] == 0
    assert observer.membership.view_of(victim.name).incarnation == 0
    # After the heal, rejoin probes carry the verdict "you are dead to
    # me at incarnation 0" to the victim; it refutes by outbidding the
    # buried incarnation, and only *that* higher incarnation revives it.
    # Both sides reconverge without an operator.
    bed.run(until=90.0, detect_deadlock=False)
    assert victim.membership.stats["refutations"] >= 1
    assert victim.membership.incarnation >= 1
    assert observer.membership.stats["peer_revivals"] >= 1
    assert observer.membership.state_of(victim.name) == "alive"
    assert observer.membership.view_of(victim.name).incarnation >= 1
    for a in bed.servers:
        for b in bed.servers:
            if a is not b:
                assert a.membership.state_of(b.name) == "alive"


def test_death_callback_fires_exactly_once_per_confirmation():
    bed = bed_of()
    victim, observer = bed.servers[2], bed.servers[0]
    fired: list[tuple[str, int]] = []
    observer.membership.on_confirmed_dead(
        lambda peer, incarnation: fired.append((peer, incarnation))
    )
    bed.faults().crash(victim, at=3.0)
    bed.run(until=60.0, detect_deadlock=False)
    # Sweeps keep running for 40+ virtual seconds after confirmation;
    # the callback still fires only on the *transition*.
    assert fired == [(victim.name, 0)]


def test_load_and_draining_are_gossiped():
    bed = bed_of()
    target, observer = bed.servers[1], bed.servers[0]
    bed.kernel.schedule(5.0, target.drain)
    bed.run(until=20.0, detect_deadlock=False)
    assert observer.membership.is_draining(target.name)
    assert not observer.membership.is_draining(bed.servers[2].name)
    assert observer.membership.load_of(target.name) == 0.0


def test_config_validation():
    with pytest.raises(ReproError):
        MembershipConfig(heartbeat_period=0.0)
    with pytest.raises(ReproError):
        MembershipConfig(suspect_after=12.0, confirm_after=6.0)
    with pytest.raises(ReproError):
        MembershipConfig(dead_probe_every=0)


def test_unparseable_death_verdict_is_a_malformed_heartbeat():
    from repro.server.membership import HEARTBEAT_APP_KIND
    from repro.sim.threads import SimThread
    from repro.util.serialization import encode

    bed = bed_of(n=2)
    sender, receiver = bed.servers
    beat = {"incarnation": 0, "load": 0.0, "draining": False,
            "you_dead_at": "soon"}

    def send_bad_beat():
        channel = sender.secure.connect(receiver.name)
        channel.send(HEARTBEAT_APP_KIND, encode(beat))

    SimThread(bed.kernel, send_bad_beat, "tester", on_error="store").start()
    bed.run(until=1.0, detect_deadlock=False)
    assert receiver.membership.stats["heartbeats_malformed"] == 1
    assert receiver.membership.stats["heartbeats_received"] == 0
    assert receiver.membership.incarnation == 0
    assert receiver.secure.stats["rejected_malformed"] == 0
