"""Secure-channel tests: mutual auth, privacy, integrity, replay defence.

Mirror image of ``test_adversary_plain.py``: every attack that succeeded
against the raw transport is defeated here, each by a specific mechanism.
"""

from __future__ import annotations

import pytest

from repro.crypto.cert import CertificateAuthority
from repro.errors import AuthenticationError
from repro.net.adversary import Eavesdropper, Replayer, Tamperer
from repro.net.message import Message
from repro.net.secure_channel import frame
from repro.sim.threads import SimThread
from repro.util.rng import make_rng


def secure_pair(world, a="alice", b="bob", rogue_ca_for_b=None, **link_kw):
    host_a = world.add_secure(a)
    host_b = world.add_secure(b, rogue_ca=rogue_ca_for_b)
    fwd, rev = world.connect(a, b, **link_kw)
    return host_a, host_b, fwd, rev


def run_client(world, fn, name="client"):
    t = SimThread(world.kernel, fn, name, on_error="store")
    t.start()
    world.run()
    if t.exception is not None:
        raise t.exception
    return t.result


class TestHandshake:
    def test_connect_establishes_authenticated_channel(self, world):
        host_a, host_b, *_ = secure_pair(world)

        def client():
            channel = host_a.connect("bob")
            assert channel.peer == "bob"
            return channel

        channel = run_client(world, client)
        assert host_b.channel_to("alice") is not None
        assert host_b.stats["channels_accepted"] == 1
        # Both ends derived the same key (proved by the data plane below).
        assert channel.channel_id == host_b.channel_to("alice").channel_id

    def test_connect_reuses_existing_channel(self, world):
        host_a, _, *_ = secure_pair(world)

        def client():
            c1 = host_a.connect("bob")
            c2 = host_a.connect("bob")
            assert c1 is c2

        run_client(world, client)

    def test_rogue_certificate_rejected(self, world):
        rogue = CertificateAuthority(
            "rogue-ca", make_rng(99, "rogue"), world.kernel.clock
        )
        host_a, host_b, *_ = secure_pair(world, rogue_ca_for_b=rogue)

        def client():
            with pytest.raises(AuthenticationError):
                host_a.connect("bob")

        run_client(world, client)

    def test_responder_rejects_rogue_initiator(self, world):
        rogue = CertificateAuthority(
            "rogue-ca", make_rng(98, "rogue2"), world.kernel.clock
        )
        # alice holds a rogue cert; bob is legitimate
        host_a = world.add_secure("alice", rogue_ca=rogue)
        host_b = world.add_secure("bob")
        world.connect("alice", "bob")

        def client():
            with pytest.raises(AuthenticationError, match="refused"):
                host_a.connect("bob")

        run_client(world, client)
        assert host_b.stats["handshake_rejected"] == 1

    def test_expired_certificate_rejected(self, world):
        host_a, host_b, *_ = secure_pair(world)
        world.kernel.clock.advance(2 * 10**6)  # past cert lifetime

        def client():
            with pytest.raises(AuthenticationError):
                host_a.connect("bob")

        run_client(world, client)


class TestDataPlane:
    def test_secure_send_and_call(self, world):
        host_a, host_b, *_ = secure_pair(world)
        host_b.bind_app("quote", lambda peer, body: b"price:42:" + body)

        def client():
            channel = host_a.connect("bob")
            return channel.call("quote", b"widget")

        assert run_client(world, client) == b"price:42:widget"

    def test_handler_sees_authenticated_peer(self, world):
        host_a, host_b, *_ = secure_pair(world)
        peers: list[str] = []
        host_b.bind_app("ping", lambda peer, body: (peers.append(peer), b"ok")[1])

        def client():
            host_a.connect("bob").call("ping", b"")

        run_client(world, client)
        assert peers == ["alice"]

    def test_one_way_send(self, world):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("note", lambda peer, body: got.append(body))

        def client():
            host_a.connect("bob").send("note", b"fyi")

        run_client(world, client)
        assert got == [b"fyi"]

    def test_eavesdropper_sees_no_plaintext(self, world):
        host_a, host_b, fwd, rev = secure_pair(world)
        spy_fwd, spy_rev = Eavesdropper(), Eavesdropper()
        fwd.add_tap(spy_fwd)
        rev.add_tap(spy_rev)
        host_b.bind_app("order", lambda peer, body: b"accepted")

        def client():
            channel = host_a.connect("bob")
            return channel.call("order", b"credit-card=4242424242424242")

        assert run_client(world, client) == b"accepted"
        assert spy_fwd.captured and spy_rev.captured  # they did see traffic
        assert not spy_fwd.saw_substring(b"4242424242424242")
        assert not spy_rev.saw_substring(b"accepted")

    def test_tampered_data_rejected_not_delivered(self, world):
        host_a, host_b, fwd, _ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("data", lambda peer, body: got.append(body))

        def client():
            channel = host_a.connect("bob")
            # Attack only the data flight, not the handshake.
            fwd.add_tap(Tamperer(make_rng(5, "t"), rate=1.0))
            channel.send("data", b"account=100")

        run_client(world, client)
        assert got == []
        assert host_b.stats["rejected_tampered"] == 1

    def test_replayed_data_rejected(self, world):
        host_a, host_b, fwd, _ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("pay", lambda peer, body: got.append(body))

        def client():
            channel = host_a.connect("bob")
            fwd.add_tap(Replayer(copies=2))
            channel.send("pay", b"transfer $100")

        run_client(world, client)
        # Exactly one payment processed; the replays were rejected.
        assert got == [b"transfer $100"]
        assert host_b.stats["rejected_replayed"] == 2

    def test_sequence_continues_across_messages(self, world):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("seq", lambda peer, body: got.append(body))

        def client():
            channel = host_a.connect("bob")
            for i in range(5):
                channel.send("seq", str(i).encode())

        run_client(world, client)
        assert got == [b"0", b"1", b"2", b"3", b"4"]

    def test_unknown_channel_counted(self, world):
        host_a, host_b, *_ = secure_pair(world)
        world.network.send(
            Message(
                src="alice",
                dst="bob",
                kind="sec.data",
                payload=frame("chan:alice-999", b"x" * 64),
            )
        )
        world.run()
        assert host_b.stats["unknown_channel"] == 1

    def test_bidirectional_traffic(self, world):
        host_a, host_b, *_ = secure_pair(world)
        host_a.bind_app("cb", lambda peer, body: b"from-alice")
        host_b.bind_app("fwd", lambda peer, body: b"from-bob")

        def client():
            channel_ab = host_a.connect("bob")
            reply1 = channel_ab.call("fwd", b"")
            # Bob reuses the same channel to call back.
            channel_ba = host_b.channel_to("alice")
            reply2 = channel_ba.call("cb", b"")
            return reply1, reply2

        assert run_client(world, client) == (b"from-bob", b"from-alice")
