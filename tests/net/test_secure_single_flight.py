"""Single-flight connect and the responder's bounded half-done handshakes.

``SecureHost.connect`` runs at most one handshake per peer at a time:
callers that arrive while it is in flight share its channel or its
failure, each waiting at most its own ``timeout``.  The responder keeps
one half-done handshake per initiator.  The callers' stagger is drawn
from ``REPRO_STRESS_SEED`` (default 1000), which CI sweeps.
"""

from __future__ import annotations

import os

import pytest

from repro.crypto.cert import CertificateAuthority
from repro.errors import AuthenticationError, NetworkError
from repro.net.adversary import Dropper
from repro.net.message import Message
from repro.sim.threads import SimThread, ThreadState
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode
from tests.net.networld import World

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))


@pytest.fixture()
def world() -> World:
    return World(seed=STRESS_SEED)


def secure_pair(world):
    host_a = world.add_secure("alice")
    host_b = world.add_secure("bob")
    fwd, rev = world.connect("alice", "bob")
    return host_a, host_b, fwd, rev


def stagger(n: int) -> list[float]:
    """Start delays inside the hello's first 1 ms flight, so every caller
    arrives while the leader's handshake is still in flight."""
    rng = make_rng(STRESS_SEED, "single-flight")
    return sorted(rng.uniform(0.0, 0.001) for _ in range(n))


def spawn(world, fn, name: str, delay: float = 0.0) -> SimThread:
    thread = SimThread(world.kernel, fn, name, on_error="store")
    thread.start(delay)
    return thread


def connector(host, peer: str, timeout: float | None, outcomes: list):
    def run():
        try:
            outcomes.append(host.connect(peer, timeout=timeout))
        except NetworkError as exc:
            outcomes.append(exc)

    return run


def test_concurrent_connects_share_one_handshake(world):
    host_a, host_b, *_ = secure_pair(world)
    outcomes: list = []
    for i, delay in enumerate(stagger(6)):
        spawn(world, connector(host_a, "bob", 5.0, outcomes), f"c{i}", delay)
    world.run()
    assert len(outcomes) == 6
    assert all(channel is outcomes[0] for channel in outcomes)
    assert host_a.stats["channels_initiated"] == 1
    assert host_a.stats["connects_joined"] == 5
    assert host_b.stats["channels_accepted"] == 1
    assert host_a.open_channels() == 1
    assert host_b.open_channels() == 1
    assert not host_a._connecting


def test_failed_handshake_fails_every_waiter_then_next_connect_retries(world):
    host_a, host_b, fwd, _ = secure_pair(world)
    dropper = Dropper(make_rng(STRESS_SEED, "drop"), rate=1.0)
    fwd.add_tap(dropper)  # every hello is lost
    outcomes: list = []
    for i, delay in enumerate(stagger(4)):
        spawn(world, connector(host_a, "bob", 1.0, outcomes), f"c{i}", delay)
    world.run()
    assert len(outcomes) == 4
    assert all(isinstance(exc, NetworkError) for exc in outcomes)
    # The leader's own failure, shared: one hello went out, not four.
    assert all(exc is outcomes[0] for exc in outcomes)
    assert dropper.dropped_count == 1
    assert host_a.stats["channels_initiated"] == 0

    fwd.remove_tap(dropper)
    retried: list = []
    spawn(world, connector(host_a, "bob", 1.0, retried), "retry")
    world.run()
    assert host_a.stats["channels_initiated"] == 1
    assert retried == [host_a.channel_to("bob")]


def test_refused_handshake_shares_the_authentication_error(world):
    host_a = world.add_secure("alice")
    rogue = CertificateAuthority(
        "rogue-ca", make_rng(STRESS_SEED, "rogue"), world.kernel.clock
    )
    world.add_secure("bob", rogue_ca=rogue)
    world.connect("alice", "bob")
    errors: list = []

    def client():
        try:
            host_a.connect("bob", timeout=5.0)
        except AuthenticationError as exc:
            errors.append(exc)

    for i, delay in enumerate(stagger(3)):
        spawn(world, client, f"c{i}", delay)
    world.run()
    assert len(errors) == 3 and all(exc is errors[0] for exc in errors)


def test_waiter_with_shorter_timeout_times_out_on_its_own(world):
    host_a = world.add_secure("alice")
    world.network.add_node("bob")  # no secure host: the hello goes unanswered
    world.connect("alice", "bob")
    finished: dict[str, float] = {}
    outcomes: dict[str, BaseException] = {}

    def client(name: str, timeout: float):
        def run():
            try:
                host_a.connect("bob", timeout=timeout)
            except NetworkError as exc:
                outcomes[name] = exc
            finished[name] = world.kernel.clock.now()

        return run

    spawn(world, client("leader", 10.0), "leader")
    spawn(world, client("short", 2.0), "short", delay=1.0)
    world.run(detect_deadlock=False)
    assert finished["short"] == pytest.approx(3.0)
    assert "connect to 'bob' timed out after 2.0s" in str(outcomes["short"])
    assert finished["leader"] == pytest.approx(10.0)
    assert "sec.hello" in str(outcomes["leader"])
    assert host_a.stats["connects_joined"] == 1


def test_killed_leader_fails_its_waiters(world):
    host_a = world.add_secure("alice")
    world.network.add_node("bob")
    world.connect("alice", "bob")
    outcomes: list = []
    leader = spawn(world, connector(host_a, "bob", 30.0, outcomes), "leader")
    # No timeout of their own: only the leader's end can release them.
    waiters = [
        spawn(world, connector(host_a, "bob", None, outcomes), f"w{i}", delay)
        for i, delay in enumerate(stagger(3))
    ]
    world.kernel.schedule(1.0, leader.kill)
    world.run()  # deadlock detection: a stranded waiter fails the run
    assert leader.state is ThreadState.KILLED
    assert all(w.state is ThreadState.DONE for w in waiters)
    assert len(outcomes) == 3
    assert all("abandoned" in str(exc) for exc in outcomes)
    assert world.kernel.clock.now() == pytest.approx(1.0)
    assert not host_a._connecting


def test_reset_channels_forgets_the_in_flight_handshake(world):
    host_a, host_b, fwd, _ = secure_pair(world)
    dropper = Dropper(make_rng(STRESS_SEED, "drop"), rate=1.0)
    fwd.add_tap(dropper)
    stale: list = []
    spawn(world, connector(host_a, "bob", 5.0, stale), "stale")
    fresh: list = []

    def after_reset():
        host_a.reset_channels()
        fwd.remove_tap(dropper)
        spawn(world, connector(host_a, "bob", 5.0, fresh), "fresh")

    world.kernel.schedule(1.0, after_reset)
    world.run()
    # The post-reset caller ran its own handshake instead of joining
    # the pre-reset one, which still failed on its own.
    assert isinstance(stale[0], NetworkError)
    assert fresh == [host_a.channel_to("bob")]
    assert host_a.stats["channels_initiated"] == 1
    assert host_a.stats["connects_joined"] == 0


def hello_from(host, nonce: bytes) -> Message:
    return Message(
        src=host.name, dst="bob", kind="sec.hello", corr_id=nonce.hex(),
        payload=encode({"cert": host.certificate, "nonce": nonce}),
    )


def test_abandoned_hellos_from_one_peer_leave_one_entry(world):
    host_a, host_b, *_ = secure_pair(world)
    for i in range(5):
        world.network.send(hello_from(host_a, bytes([i]) * 16))
    world.run()
    assert list(host_b._pending_hello) == ["alice"]
    assert host_b._pending_hello["alice"][1] == bytes([4]) * 16


def test_keyex_of_a_replaced_hello_is_rejected(world):
    host_a, host_b, *_ = secure_pair(world)
    replies: list[dict] = []

    def client():
        for nonce in (b"\x01" * 16, b"\x02" * 16):
            # The second hello from the same peer replaces the first.
            host_a.endpoint.call(
                "bob", "sec.hello",
                encode({"cert": host_a.certificate, "nonce": nonce}),
            )
        keyex = encode({"channel": "chan:alice-x", "nonce_a": b"\x01" * 16,
                        "kem": b"", "sig": b""})
        replies.append(decode(host_a.endpoint.call("bob", "sec.keyex", keyex)))

    spawn(world, client, "client")
    world.run()
    assert replies == [{"error": "no matching hello"}]
    assert host_b.stats["handshake_rejected"] == 1
    assert list(host_b._pending_hello) == ["alice"]  # the newer one survives
    assert host_b.open_channels() == 0
