"""Hostile/malformed inputs to every server-side handler.

A 1998 agent server on the open internet is, above all, a parser of
untrusted bytes.  Every handler must answer garbage with a counted,
audited refusal — never an exception escaping into the kernel.
"""

from __future__ import annotations

import pytest

from repro.credentials.rights import Rights
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.serialization import decode, encode


def secure_send(bed, src, dst, app_kind, payload: bytes, *, call=False):
    """Ship raw bytes over an authenticated channel between two servers."""
    result: list = []

    def client():
        channel = src.secure.connect(dst.name)
        if call:
            result.append(channel.call(app_kind, payload, timeout=30.0))
        else:
            channel.send(app_kind, payload)

    SimThread(bed.kernel, client, "tester", on_error="store").start()
    bed.run(detect_deadlock=False)
    return result


class TestTransferHandler:
    def test_non_image_payload_refused(self):
        bed = Testbed(2)
        [raw] = secure_send(
            bed, bed.home, bed.servers[1], "atp.transfer",
            encode({"not": "an image"}), call=True,
        )
        reply = decode(raw)
        assert reply["status"] == "refused"
        assert "not an agent image" in reply["reason"]
        assert bed.servers[1].stats["transfers_refused"] == 1

    def test_undecodable_payload_refused(self):
        bed = Testbed(2)
        [raw] = secure_send(
            bed, bed.home, bed.servers[1], "atp.transfer",
            b"\xff\xfe garbage", call=True,
        )
        assert decode(raw)["status"] == "refused"

    def test_refusals_are_audited(self):
        bed = Testbed(2)
        secure_send(bed, bed.home, bed.servers[1], "atp.transfer",
                    encode(123), call=True)
        denials = bed.servers[1].audit.records(operation="atp.admit",
                                               allowed=False)
        assert len(denials) == 1
        assert denials[0].domain == bed.home.name  # the authenticated peer


class TestStatusHandler:
    @pytest.mark.parametrize("payload", [
        encode({"agent": "not a urn"}),
        encode({"wrong_key": 1}),
        encode([1, 2, 3]),
        b"binary trash",
    ])
    def test_bad_queries_get_error_replies(self, payload):
        bed = Testbed(2)
        [raw] = secure_send(bed, bed.home, bed.servers[1], "agent.status",
                            payload, call=True)
        # Even an undecodable body gets a structured error reply — the
        # channel layer delivered it intact; only the application payload
        # is junk.
        assert "error" in decode(raw)


class TestControlHandler:
    def test_malformed_control_gets_error(self):
        bed = Testbed(2)
        [raw] = secure_send(bed, bed.home, bed.servers[1], "agent.control",
                            encode({"agent": 42}), call=True)
        assert "error" in decode(raw)


class TestReportHandler:
    def test_malformed_report_counted_not_stored(self):
        bed = Testbed(2)
        secure_send(bed, bed.home, bed.servers[1], "agent.report",
                    b"\x00 not a report")
        assert bed.servers[1].stats["reports_malformed"] == 1
        assert bed.servers[1].reports == []

    def test_wellformed_report_tagged_with_peer(self):
        bed = Testbed(2)
        secure_send(bed, bed.home, bed.servers[1], "agent.report",
                    encode({"agent": "x", "payload": {"v": 1}}))
        [report] = bed.servers[1].reports
        assert report["via"] == bed.home.name
        assert report["payload"] == {"v": 1}

    def test_non_dict_body_counted_and_batch_continues(self):
        # A decodable body that is not a report must not abort the rest
        # of a send_many batch.
        bed = Testbed(2)
        receiver = bed.servers[1]

        def client():
            channel = bed.home.secure.connect(receiver.name)
            channel.send_many("agent.report", [
                encode([1, 2, 3]),
                encode({"agent": "x", "payload": {"v": 2}}),
            ])

        SimThread(bed.kernel, client, "tester", on_error="store").start()
        bed.run(detect_deadlock=False)
        assert receiver.stats["reports_malformed"] == 1
        assert receiver.secure.stats["rejected_malformed"] == 0
        [report] = receiver.reports
        assert report["payload"] == {"v": 2}


class TestServerSurvivesAll:
    def test_server_still_hosts_after_garbage_storm(self):
        from repro.agents.agent import Agent, register_trusted_agent_class

        @register_trusted_agent_class
        class AfterStorm(Agent):
            def run(self):
                self.complete("fine")

        bed = Testbed(2)
        for kind in ("atp.transfer", "agent.status", "agent.control",
                     "agent.report"):
            secure_send(bed, bed.home, bed.servers[1], kind, b"\x01garbage")
        image = bed.launch(AfterStorm(), Rights.all(), at=bed.servers[1])
        bed.run(detect_deadlock=False)
        assert bed.servers[1].resident_status(image.name)["status"] == "completed"
