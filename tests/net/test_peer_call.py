"""Reaching a peer: ``SecureHost.call`` / ``send`` and ``SimEvent.wait``.

``SecureHost.call`` and ``send`` connect (or reuse the cached channel),
run one exchange under one timeout, and forget the channel when the
exchange fails, so the next exchange handshakes afresh.  That is what
lets a caller reach a peer that crashed and restarted: the peer lost its
end of every channel, and frames on the old one are discarded unread.
The world's keys and nonces are drawn from ``REPRO_STRESS_SEED``
(default 1000), which CI sweeps.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ChannelClosedError, NetworkError
from repro.net.adversary import Dropper, Eavesdropper
from repro.obs.aggregate import TelemetryCollector
from repro.paradigms.rpc import RpcClient, RpcService
from repro.server.testbed import Testbed
from repro.sim.sync import SimEvent
from repro.sim.threads import SimThread
from repro.util.rng import make_rng
from tests.net.networld import World

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))


def in_thread(kernel, fn, run):
    """Run ``fn`` in a simulated thread until the world drains; return
    its result or raise its exception."""
    thread = SimThread(kernel, fn, "client", on_error="store")
    thread.start()
    run()
    if thread.exception is not None:
        raise thread.exception
    return thread.result


def secure_pair(world):
    host_a = world.add_secure("alice")
    host_b = world.add_secure("bob")
    fwd, _ = world.connect("alice", "bob")
    return host_a, host_b, fwd


@pytest.fixture()
def world() -> World:
    return World(seed=STRESS_SEED)


# -- a restarted peer is reachable again ------------------------------------------


def test_collector_reaches_a_restarted_peer():
    bed = Testbed(2, seed=STRESS_SEED)
    peer = bed.servers[1]
    collector = TelemetryCollector(bed.home.secure, [peer.name], timeout=2.0)

    def rounds():
        ok = [collector.scrape_round()]
        peer.crash()
        peer.restart()
        # The first round after the restart runs on the stale channel
        # and times out; it must not leave the channel cached.
        ok += [collector.scrape_round(), collector.scrape_round()]
        return ok

    assert in_thread(bed.kernel, rounds, bed.run) == [1, 0, 1]
    assert bed.home.secure.stats["channels_initiated"] == 2


def test_rpc_client_reaches_a_restarted_peer():
    bed = Testbed(2, seed=STRESS_SEED)
    peer = bed.servers[1]
    RpcService(peer).register("add", lambda a, b: a + b)
    client = RpcClient(bed.home)

    def calls():
        out = [client.call(peer.name, "add", 2, 3, timeout=2.0)]
        peer.crash()
        peer.restart()
        for _ in range(2):
            try:
                out.append(client.call(peer.name, "add", 2, 3, timeout=2.0))
            except NetworkError:
                out.append("failed")
        return out

    assert in_thread(bed.kernel, calls, bed.run) == [5, "failed", 5]


# -- the channel cache under call / send ------------------------------------------


def test_call_reuses_the_channel_and_forgets_it_on_failure(world):
    host_a, host_b, _ = secure_pair(world)
    host_b.bind_app("echo", lambda peer, body: body)

    def client():
        out = [host_a.call("bob", "echo", b"1", 2.0)]
        first = host_a.channel_to("bob")
        out.append(host_a.call("bob", "echo", b"2", 2.0))
        out.append(host_a.channel_to("bob") is first)
        host_b.reset_channels()  # bob restarts: its end of the channel is gone
        try:
            host_a.call("bob", "echo", b"3", 2.0)
        except NetworkError:
            out.append(host_a.channel_to("bob"))
        out.append(host_a.call("bob", "echo", b"4", 2.0))
        out.append(host_a.channel_to("bob") is not first)
        return out

    assert in_thread(world.kernel, client, world.run) == [
        b"1", b"2", True, None, b"4", True,
    ]
    assert host_a.stats["channels_initiated"] == 2
    assert host_a.stats["channels_dropped"] == 1


def test_send_reuses_the_channel_and_forgets_it_on_failure(world):
    host_a, host_b, _ = secure_pair(world)
    received: list[bytes] = []
    host_b.bind_app("note", lambda peer, body: received.append(body))

    def client():
        host_a.send("bob", "note", [b"a"])
        first = host_a.channel_to("bob")
        host_a.send("bob", "note", [b"b", b"c"])
        reused = host_a.channel_to("bob") is first
        host_a.endpoint.close()
        try:
            host_a.send("bob", "note", [b"lost"])
        except ChannelClosedError:
            pass
        dropped = host_a.channel_to("bob") is None
        host_a.endpoint.open()
        host_a.send("bob", "note", [b"d"])
        return reused, dropped

    assert in_thread(world.kernel, client, world.run) == (True, True)
    assert received == [b"a", b"b", b"c", b"d"]
    assert host_a.stats["batches_sent"] == 1
    assert host_a.stats["channels_initiated"] == 2
    assert host_a.stats["channels_dropped"] == 1


def test_one_timeout_bounds_the_handshake(world):
    host_a, _, fwd = secure_pair(world)
    fwd.add_tap(Dropper(make_rng(STRESS_SEED, "drop")))

    def client():
        try:
            host_a.call("bob", "echo", b"", 3.0)
        except NetworkError:
            return world.kernel.now()

    assert in_thread(world.kernel, client, world.run) == pytest.approx(3.0)
    assert host_a.channel_to("bob") is None
    assert world.kernel.pending_events == 0


def one_body_frames(use_host: bool) -> list[bytes]:
    """The data frames one single-body send puts on the wire."""
    world = World(seed=STRESS_SEED)
    host_a, host_b, fwd = secure_pair(world)
    host_b.bind_app("note", lambda peer, body: None)
    in_thread(world.kernel, lambda: host_a.connect("bob"), world.run)
    spy = Eavesdropper()
    fwd.add_tap(spy)
    if use_host:
        in_thread(
            world.kernel, lambda: host_a.send("bob", "note", [b"body"]), world.run
        )
    else:
        host_a.channel_to("bob").send("note", b"body")
        world.run()
    return [message.payload for message in spy.captured]


def test_one_body_send_is_a_plain_frame():
    frames = one_body_frames(use_host=True)
    assert len(frames) == 1
    assert frames == one_body_frames(use_host=False)


# -- SimEvent.wait(timeout) leaves no timer behind ---------------------------------


def test_wait_set_before_the_timeout_cancels_the_timer(world):
    event = SimEvent(world.kernel)
    world.kernel.schedule(1.0, event.set, "payload")
    got = in_thread(world.kernel, lambda: event.wait(100.0, "expired"), world.run)
    assert got == "payload"
    assert world.kernel.now() == pytest.approx(1.0)
    assert world.kernel.pending_events == 0


def test_wait_that_expires_returns_the_expired_value(world):
    event = SimEvent(world.kernel)
    got = in_thread(world.kernel, lambda: event.wait(2.0, "expired"), world.run)
    assert got == "expired"
    assert world.kernel.now() == pytest.approx(2.0)
    assert world.kernel.pending_events == 0
    event.set("late")  # a late set is a no-op on an expired wait
    assert event.wait() == "expired"


def test_interrupted_wait_cancels_the_timer(world):
    event = SimEvent(world.kernel)
    thread = SimThread(world.kernel, lambda: event.wait(100.0), "waiter")
    thread.start()
    world.kernel.schedule(1.0, thread.kill)
    assert world.run() == pytest.approx(1.0)
    assert not thread.is_alive
    assert world.kernel.pending_events == 0
    assert not event._waiters


def test_wait_on_a_set_event_schedules_nothing(world):
    event = SimEvent(world.kernel)
    event.set("ready")
    assert in_thread(world.kernel, lambda: event.wait(5.0), world.run) == "ready"
    assert world.kernel.now() == 0.0
