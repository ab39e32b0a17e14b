"""Grant leases: renewal, lapse-as-revocation, and the restart sweep.

Under supervision every grant's expiration time is a renewable lease on
the kernel clock.  Holders extend it through the proxy's ``renew_lease``;
missing the deadline *is* revocation (the paper's 5.5 expiration
extension, made bidirectional).  On server restart the supervisor
re-validates every recorded grant from the domain database: unexpired
leases survive the crash, lapsed ones are swept.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import ProxyExpiredError, ProxyRevokedError
from repro.naming.urn import URN
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed

LEASED = "urn:resource:site0.net/leased"
OWNER = URN.parse("urn:principal:site0.net/o")

OUTCOMES: dict[str, object] = {}


@pytest.fixture(autouse=True)
def _reset_outcomes():
    OUTCOMES.clear()
    yield


def leased_buffer() -> Buffer:
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), confine=False)]
    )
    return Buffer(URN.parse(LEASED), OWNER, policy)


def supervised_bed(lease: float = 50.0) -> Testbed:
    bed = Testbed(
        1,
        supervision=SupervisorConfig(
            lease_duration=lease, invoke_deadline=None
        ),
    )
    bed.home.install_resource(leased_buffer())
    return bed


@register_trusted_agent_class
class LeaseHolder(Agent):
    """Renews once in time, then deliberately overstays the lease."""

    def run(self):
        proxy = self.host.get_resource(LEASED)
        OUTCOMES["initial_deadline"] = proxy.proxy_info()["expires_at"]
        self.host.sleep(30.0)
        OUTCOMES["renewed_deadline"] = proxy.renew_lease()  # t=30 -> 80
        self.host.sleep(40.0)
        proxy.size()  # t=70 < 80: the renewal kept the grant alive
        OUTCOMES["call_after_renewal"] = "ok"
        self.host.sleep(20.0)  # t=90 > 80: the lease has lapsed
        try:
            proxy.size()
        except ProxyExpiredError as exc:
            OUTCOMES["expired_call"] = "denied"
            OUTCOMES["expired_context"] = dict(exc.context)
        try:
            proxy.renew_lease()
        except ProxyExpiredError as exc:
            OUTCOMES["lapse_context"] = dict(exc.context)
        # Lapse IS revocation: the proxy is now permanently dead, and a
        # further renewal attempt reports revoked, not expired.
        OUTCOMES["revoked_after_lapse"] = proxy.proxy_info()["revoked"]
        try:
            proxy.renew_lease()
        except ProxyRevokedError:
            OUTCOMES["renew_after_lapse"] = "revoked"
        self.complete()


@register_trusted_agent_class
class SleepyHolder(Agent):
    """Takes a grant then sleeps; the server will crash underneath it."""

    def run(self):
        OUTCOMES["sleepy_proxy"] = self.host.get_resource(LEASED)
        self.host.sleep(10_000.0)
        self.complete()


@register_trusted_agent_class
class FreshRequester(Agent):
    """A post-restart arrival running the ordinary Fig. 6 protocol."""

    def run(self):
        proxy = self.host.get_resource(LEASED)
        proxy.put("hello")
        OUTCOMES["fresh"] = "ok"
        OUTCOMES["fresh_deadline"] = proxy.proxy_info()["expires_at"]
        self.complete()


def test_renewal_extends_and_lapse_revokes():
    bed = supervised_bed(lease=50.0)
    bed.launch(LeaseHolder(), Rights.all(), agent_local="holder")
    bed.run()
    assert OUTCOMES["initial_deadline"] == pytest.approx(50.0)
    assert OUTCOMES["renewed_deadline"] == pytest.approx(80.0)
    assert OUTCOMES["call_after_renewal"] == "ok"
    assert OUTCOMES["expired_call"] == "denied"
    expired = OUTCOMES["expired_context"]
    assert expired["method"] == "size"
    assert expired["deadline"] == pytest.approx(80.0)
    assert OUTCOMES["revoked_after_lapse"] is True
    assert OUTCOMES["renew_after_lapse"] == "revoked"
    context = OUTCOMES["lapse_context"]
    assert context["resource"] == "Buffer"
    assert context["deadline"] == pytest.approx(80.0)


def test_restart_sweeps_lapsed_lease_and_fresh_binding_succeeds():
    bed = supervised_bed(lease=50.0)
    holder = bed.launch(SleepyHolder(), Rights.all(), agent_local="sleepy")
    # Crash at t=10 (lease still valid), restart at t=70 (lease lapsed
    # at t=50 while the server was down).
    bed.faults().crash(bed.home, at=10.0, restart_at=70.0)
    bed.run(detect_deadlock=False)

    supervisor = bed.home.supervisor
    assert supervisor.stats["leases_swept"] == 1
    # The crash ended the residency: its record is a tombstone counting
    # the binding, and the proxy is the one the holder kept.
    record = bed.home.domain_db.by_agent(holder.name)
    assert record.binding_count == 1
    assert OUTCOMES["sleepy_proxy"].proxy_info()["revoked"] is True
    sweeps = bed.home.audit.records(operation="supervisor.lease_sweep")
    assert sweeps and not sweeps[0].allowed

    # The old proxy is dead, but the server is healthy: a fresh Fig. 6
    # request binds and invokes normally, with a fresh lease.
    bed.launch(FreshRequester(), Rights.all(), agent_local="fresh")
    bed.run(detect_deadlock=False)
    assert OUTCOMES["fresh"] == "ok"
    assert OUTCOMES["fresh_deadline"] == pytest.approx(bed.clock.now(), abs=51.0)


def test_restart_revalidates_unexpired_lease():
    bed = supervised_bed(lease=500.0)
    holder = bed.launch(SleepyHolder(), Rights.all(), agent_local="sleepy2")
    bed.faults().crash(bed.home, at=10.0, restart_at=30.0)
    bed.run(detect_deadlock=False)
    supervisor = bed.home.supervisor
    assert supervisor.stats["leases_swept"] == 0
    assert supervisor.stats["leases_revalidated"] >= 1
    record = bed.home.domain_db.by_agent(holder.name)
    assert record.binding_count == 1
    assert OUTCOMES["sleepy_proxy"].proxy_info()["revoked"] is False


def test_policy_lifetime_takes_precedence_over_default_lease():
    # An explicit rule lifetime is the lease; the supervisor default
    # only fills in when the policy says nothing.
    bed = Testbed(
        1,
        supervision=SupervisorConfig(lease_duration=500.0, invoke_deadline=None),
    )
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), confine=False,
                          lifetime=25.0)]
    )
    bed.home.install_resource(Buffer(URN.parse(LEASED), OWNER, policy))
    bed.launch(FreshRequester(), Rights.all(), agent_local="short")
    bed.run()
    assert OUTCOMES["fresh_deadline"] == pytest.approx(25.0, abs=1.0)


def test_unsupervised_grants_have_no_default_lease():
    bed = Testbed(1)
    bed.home.install_resource(leased_buffer())
    bed.launch(FreshRequester(), Rights.all(), agent_local="plain")
    bed.run()
    assert OUTCOMES["fresh"] == "ok"
    assert OUTCOMES["fresh_deadline"] is None
