"""The security report counts every secure frame it could not accept.

A frame whose sealed part fails to open, replays a sequence number or
cannot be parsed is *rejected*.  A frame whose clear channel id names no
channel held here is *unroutable*: a tap that flips a byte of the
channel id makes one, and so does a restarted peer's traffic on a channel
the crash wiped.  The report keeps the two apart and counts both.
"""

from __future__ import annotations

from repro.net.adversary import Adversary
from repro.net.message import Message
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread


class ChannelIdFlipper(Adversary):
    """Flips one bit of the first data frame's clear channel id."""

    def __init__(self) -> None:
        self.flipped = 0

    def intercept(self, message: Message, now: float) -> list[Message]:
        if message.kind == "sec.data" and not self.flipped:
            data = bytearray(message.payload)
            data[3] ^= 0x01  # after the u16 length: inside the channel id
            message.payload = bytes(data)
            self.flipped += 1
        return [message]


def test_tampered_channel_id_is_reported_unroutable():
    bed = Testbed(2)
    home, peer = bed.servers
    tap = ChannelIdFlipper()
    bed.network.link(home.name, peer.name).add_tap(tap)
    received: list[bytes] = []
    peer.secure.bind_app("note", lambda src, body: received.append(body))

    def client():
        home.secure.send(peer.name, "note", [b"first"])
        home.secure.send(peer.name, "note", [b"second"])

    SimThread(bed.kernel, client, "client").start()
    bed.run()
    assert tap.flipped == 1
    assert received == [b"second"]
    report = peer.security_report()
    assert report["channel_frames_unroutable"] == 1
    assert report["channel_frames_rejected"] == 0


def test_clean_exchange_reports_no_unroutable_frames():
    bed = Testbed(2)
    home, peer = bed.servers
    peer.secure.bind_app("note", lambda src, body: None)
    SimThread(
        bed.kernel, lambda: home.secure.send(peer.name, "note", [b"x"]), "client"
    ).start()
    bed.run()
    report = peer.security_report()
    assert report["channel_frames_unroutable"] == 0
    assert report["channel_frames_rejected"] == 0
