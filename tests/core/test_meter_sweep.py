"""Meter settlement on revocation: in-flight time is billed, then frozen.

Section 5.5's elapsed-time accounting has a containment corner case: an
agent blocked *inside* a time-metered call when its grant is revoked
(lease sweep, runaway kill, explicit ``revoke_for``).  The proxy's
``finally`` block would normally bill the whole call when it eventually
returns — but by then the grant is gone and the agent may be too.  The
sweep rule: revocation charges the partial elapsed time up to the
revocation instant and finalizes the meter, so the eventual in-flight
completion neither double-bills nor accrues unowned charges.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.accounting import Tariff
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import ProxyRevokedError, QuotaExceededError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.server.testbed import Testbed

PIPE = "urn:resource:site0.net/swept-pipe"
RATE = 2.0

OUTCOMES: dict[str, object] = {}


@pytest.fixture(autouse=True)
def _reset_outcomes():
    OUTCOMES.clear()
    yield


def metered_pipe(bed: Testbed) -> Buffer:
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), metered=True,
                          confine=False)]
    )
    return Buffer(URN.parse(PIPE), URN.parse("urn:principal:site0.net/o"),
                  policy, kernel=bed.kernel,
                  tariff=Tariff.of({}, per_second=RATE))


@register_trusted_agent_class
class SweptConsumer(Agent):
    def run(self):
        pipe = self.host.get_resource(PIPE)
        OUTCOMES["proxy"] = pipe
        item = pipe.get()  # blocks until the producer shows up at t=10
        OUTCOMES["item"] = item
        try:
            pipe.size()  # the grant died at t=5, mid-flight
        except ProxyRevokedError:
            OUTCOMES["next_call"] = "denied"
        self.complete()


@register_trusted_agent_class
class TardyProducer(Agent):
    def run(self):
        self.host.sleep(10.0)
        pipe = self.host.get_resource(PIPE)
        pipe.put("finally")
        self.complete()


def test_revocation_bills_partial_inflight_time_and_freezes_the_meter():
    bed = Testbed(1)
    pipe = metered_pipe(bed)
    bed.home.install_resource(pipe)
    consumer = bed.launch(SweptConsumer(), Rights.all(),
                          agent_local="consumer")
    bed.launch(TardyProducer(), Rights.all(), agent_local="producer")

    def revoke_consumer():
        record = bed.home.domain_db.by_agent(consumer.name)
        with enter_group(bed.home.server_domain.thread_group):
            assert pipe.revoke_for(record.domain.domain_id) == 1

    # t=5: server revokes while the consumer is parked inside get().
    bed.kernel.schedule_at(5.0, revoke_consumer)
    bed.run()

    # The in-flight call itself still completes (the pre-check ran at
    # t=0); only *new* calls see the revocation.
    assert OUTCOMES["item"] == "finally"
    assert OUTCOMES["next_call"] == "denied"

    # The finished residency's record is a tombstone (no bindings); the
    # proxy is the one the consumer held.
    record = bed.home.domain_db.by_agent(consumer.name)
    assert record.binding_count == 1
    proxy = OUTCOMES["proxy"]
    assert proxy.proxy_info()["revoked"] is True
    # Billed exactly the 5 seconds used before the sweep — not the full
    # 10-second occupancy, and not 15 (sweep + finally double-charge).
    assert record.charges == pytest.approx(5.0 * RATE)
    report = proxy.usage_report()
    assert report.time_charges == pytest.approx(5.0 * RATE)
    assert proxy._meter.finalized is True


@register_trusted_agent_class
class QuotaGreedy(Agent):
    def run(self):
        proxy = self.host.get_resource(PIPE)
        try:
            while True:
                proxy.get()
        except QuotaExceededError as exc:
            OUTCOMES["context"] = dict(exc.context)
        self.complete()


def test_quota_error_carries_structured_context():
    bed = Testbed(1)
    policy = SecurityPolicy(
        rules=[PolicyRule(
            "any", "*",
            Rights.of("Buffer.*", quotas={"Buffer.get": 1}),
            metered=True, confine=False,
        )]
    )
    pipe = Buffer(URN.parse(PIPE), URN.parse("urn:principal:site0.net/o"),
                  policy, kernel=bed.kernel)
    pipe.put("one")
    pipe.put("two")
    bed.home.install_resource(pipe)
    bed.launch(QuotaGreedy(), Rights.all(), agent_local="greedy")
    bed.run()
    context = OUTCOMES["context"]
    assert context["method"] == "get"
    assert context["limit"] == 1
    assert context["resource"] == "Buffer"
