"""The secure channel's data frame: layout known answers and malformed input.

A data frame is ``u16 len(channel_id) | channel_id | sealed``; the sealed
plaintext is ``u64 seq | u8 flags | u16 len(app_kind) | u16 len(corr) |
app_kind | corr | body`` (big-endian).  These tests pin that layout and
check that a frame the parser cannot read is counted as malformed and
reaches no handler.
"""

from __future__ import annotations

import struct

import pytest

from repro.net.adversary import Eavesdropper
from repro.net.message import Message
from repro.net.secure_channel import _header, _parse, frame
from repro.sim.threads import SimThread


def secure_pair(world):
    host_a = world.add_secure("alice")
    host_b = world.add_secure("bob")
    fwd, rev = world.connect("alice", "bob")
    return host_a, host_b, fwd, rev


def open_channel(world, host_a):
    box = []
    SimThread(world.kernel, lambda: box.append(host_a.connect("bob")), "c").start()
    world.run()
    return box[0]


class TestLayout:
    def test_frame_prefix_known_answer(self):
        assert frame("chan:alice-1", b"SEALED") == (
            b"\x00\x0c" b"chan:alice-1" b"SEALED"
        )

    def test_header_known_answer(self):
        assert _header(7, 0x01, "quote", "c1") == bytes.fromhex(
            "0000000000000007"  # seq
            "01"  # flags: reply
            "0005"  # len(app_kind)
            "0002"  # len(corr)
            "71756f7465"  # "quote"
            "6331"  # "c1"
        )

    def test_sealed_plaintext_known_answer(self, world):
        host_a, host_b, fwd, _ = secure_pair(world)
        channel = open_channel(world, host_a)
        spy = Eavesdropper()
        fwd.add_tap(spy)
        channel.send("note", b"fyi")
        channel.send_many("note", [b"a", b"", b"bc"])
        world.run()
        peer_end = host_b.channel_to("alice")
        cid = channel.channel_id.encode()
        prefix = len(cid).to_bytes(2, "big") + cid
        plaintexts = []
        for message in spy.captured:
            assert message.payload.startswith(prefix)
            plaintexts.append(
                peer_end._seal.open(message.payload[len(prefix):], associated_data=cid)
            )
        assert plaintexts == [
            bytes.fromhex("0000000000000001" "00" "0004" "0000")
            + b"note" + b"fyi",
            bytes.fromhex("0000000000000002" "02" "0004" "0000")
            + b"note"
            + bytes.fromhex("00000003" "00000001") + b"a"
            + bytes.fromhex("00000000")
            + bytes.fromhex("00000002") + b"bc",
        ]

    def test_app_kind_and_corr_travel_sealed(self, world):
        host_a, host_b, fwd, _ = secure_pair(world)
        host_b.bind_app("secret-kind", lambda peer, body: b"ok")
        channel = open_channel(world, host_a)
        spy = Eavesdropper()
        fwd.add_tap(spy)
        SimThread(world.kernel, lambda: channel.call("secret-kind", b""), "c").start()
        world.run()
        assert spy.captured
        assert not spy.saw_substring(b"secret-kind")
        assert not spy.saw_substring(b"scorr")

    @pytest.mark.parametrize(
        "plaintext",
        [
            _header(1, 0x04, "x", ""),  # unknown flag bit
            _header(1, 0, "x", "")[:-1],  # app_kind runs past the end
            _header(1, 0x02, "x", "") + bytes.fromhex("00000002" "00000001") + b"a",
            _header(1, 0x02, "x", "") + bytes.fromhex("00000001" "00000009") + b"a",
            _header(1, 0x02, "x", "") + bytes.fromhex("00000001" "00000001") + b"ab",
            b"\x00" * 12,  # shorter than the fixed header
        ],
        ids=["flags", "kind-past-end", "count-past-end", "body-past-end",
             "trailing", "short"],
    )
    def test_parser_refuses(self, plaintext):
        with pytest.raises((ValueError, struct.error)):
            _parse(plaintext)


class TestMalformed:
    def _inject(self, world, payload: bytes) -> None:
        world.network.send(
            Message(src="alice", dst="bob", kind="sec.data", payload=payload)
        )
        world.run()

    @pytest.mark.parametrize("payload", [b"", b"\x00"], ids=["empty", "one-byte"])
    def test_truncated_prefix_is_malformed(self, world, payload):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("note", lambda peer, body: got.append(body))
        self._inject(world, payload)
        assert host_b.stats["rejected_malformed"] == 1
        assert host_b.stats["unknown_channel"] == 0
        assert got == []

    def test_channel_id_length_past_the_end_is_malformed(self, world):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("note", lambda peer, body: got.append(body))
        channel = open_channel(world, host_a)
        SimThread(world.kernel, lambda: channel.send("note", b"real"), "c").start()
        world.run()
        assert got == [b"real"]
        # A real channel id, but a length that claims more than is there.
        self._inject(world, b"\xff\xff" + channel.channel_id.encode())
        self._inject(world, frame(channel.channel_id, b"")[:-1])
        assert host_b.stats["rejected_malformed"] == 2
        assert host_b.stats["unknown_channel"] == 0
        assert got == [b"real"]

    def test_authentic_but_unparseable_plaintext_is_malformed(self, world):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("note", lambda peer, body: got.append(body))
        channel = open_channel(world, host_a)
        bad = channel._seal.seal(
            b"\x00" * 16, _header(5, 0x80, "note", "") + b"x",
            associated_data=channel.channel_id.encode(),
        )
        self._inject(world, frame(channel.channel_id, bad))
        assert host_b.stats["rejected_malformed"] == 1
        assert got == []
        # Nothing was accepted, so the next real frame's seq still counts.
        SimThread(world.kernel, lambda: channel.send("note", b"next"), "c").start()
        world.run()
        assert got == [b"next"]


class TestBatchOrder:
    def test_send_many_dispatches_in_order_with_mixed_sizes(self, world):
        host_a, host_b, *_ = secure_pair(world)
        got: list[bytes] = []
        host_b.bind_app("report", lambda peer, body: got.append(body))
        bodies = [b"", b"x" * 5000, b"short", bytes(range(256)), b""]
        channel = open_channel(world, host_a)

        def client():
            channel.send_many("report", bodies[:2])
            channel.send("report", b"single")
            channel.send_many("report", bodies[2:])

        SimThread(world.kernel, client, "c").start()
        world.run()
        assert got == bodies[:2] + [b"single"] + bodies[2:]
        assert host_b.stats["batches_received"] == 2
