"""Resource supervision: bulkheads, quarantine and runaway containment.

The seeded acceptance scenario: one resource method wedges (injected
resource fault) and one runaway agent hammers it, while well-behaved
agents work other resources on the same server.  The supervisor must
contain the blast radius — workers finish, the runaway is killed and
audited with its proxies revoked, the wedged resource is quarantined and
then recovers through the single-probe path once the fault clears.

Runs deterministically under ``REPRO_STRESS_SEED`` (the CI stress job
replays it with several seeds).
"""

from __future__ import annotations

import os

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import (
    InvocationDeadlineError,
    ReproError,
    ResourceOverloadedError,
    ResourceQuarantinedError,
    SupervisionError,
)
from repro.naming.urn import URN
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))

WEDGY = "urn:resource:site0.net/wedgy"
STEADY = "urn:resource:site0.net/steady"
OWNER = URN.parse("urn:principal:site0.net/o")

# Agents report through module-level scratch (reset per test).
OUTCOMES: dict[str, object] = {}


@pytest.fixture(autouse=True)
def _reset_outcomes():
    OUTCOMES.clear()
    yield


def open_policy() -> SecurityPolicy:
    return SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), confine=False)]
    )


def make_buffer(name: str) -> Buffer:
    return Buffer(URN.parse(name), OWNER, open_policy())


@register_trusted_agent_class
class RunawayAgent(Agent):
    """Hammers the wedgy resource; every wedged call overruns its
    deadline until the watchdog kills the whole agent."""

    def run(self):
        proxy = self.host.get_resource(WEDGY)
        OUTCOMES["runaway_proxy"] = proxy
        for _ in range(50):
            try:
                proxy.size()
            except ReproError as exc:
                OUTCOMES.setdefault("runaway_errors", []).append(type(exc).__name__)
            self.host.sleep(1.0)
        self.complete("survived")


@register_trusted_agent_class
class WorkerAgent(Agent):
    """Well-behaved: spaced calls against the *other* resource."""

    def __init__(self) -> None:
        self.label = "w"

    def run(self):
        proxy = self.host.get_resource(STEADY)
        ok = 0
        for i in range(20):
            try:
                proxy.put(i)
                ok += 1
            except ReproError:
                pass
            self.host.sleep(1.0)
        OUTCOMES[self.label] = ok
        self.complete(ok)


@register_trusted_agent_class
class QuarantineWitness(Agent):
    """Calls the wedged resource mid-quarantine: must be shed fast."""

    def run(self):
        self.host.sleep(18.0)
        proxy = self.host.get_resource(WEDGY)
        before = self.host.now()
        try:
            proxy.size()
            OUTCOMES["witness"] = "allowed"
        except ResourceQuarantinedError as exc:
            # Shed fast-fails: no time passes, and the error carries
            # structured context instead of a parseable message.
            OUTCOMES["witness"] = "quarantined"
            OUTCOMES["witness_elapsed"] = self.host.now() - before
            OUTCOMES["witness_context"] = dict(exc.context)
        except ReproError as exc:
            OUTCOMES["witness"] = type(exc).__name__
        self.complete()


@register_trusted_agent_class
class RecoveryProbe(Agent):
    """Calls the quarantined resource after the fault clears: its call
    is the recovery probe that closes the breaker."""

    def run(self):
        self.host.sleep(60.0)
        proxy = self.host.get_resource(WEDGY)
        try:
            proxy.size()
            OUTCOMES["probe"] = "ok"
        except ReproError as exc:
            OUTCOMES["probe"] = type(exc).__name__
        self.complete()


def scenario_config() -> SupervisorConfig:
    return SupervisorConfig(
        lease_duration=None,  # leases are exercised in test_leases.py
        invoke_deadline=2.0,
        resource_concurrency=8,
        domain_inflight_quota=8,
        degraded_after=1,
        quarantine_after=3,
        probe_after=10.0,
        runaway_strikes=3,
    )


def test_wedged_resource_and_runaway_are_contained():
    bed = Testbed(1, seed=STRESS_SEED, supervision=scenario_config())
    bed.home.install_resource(make_buffer(WEDGY))
    bed.home.install_resource(make_buffer(STEADY))
    # The wedge: every call on the resource parks its invoker far past
    # the 2s invocation deadline, for a 40s window.
    bed.faults().resource_fault(
        bed.home, WEDGY, at=5.0, duration=40.0, mode="wedge", wedge_for=60.0
    )

    runaway = bed.launch(RunawayAgent(), Rights.all(), agent_local="runaway")
    workers = []
    for i in range(3):
        agent = WorkerAgent()
        agent.label = f"worker-{i}"
        workers.append(
            bed.launch(agent, Rights.all(), agent_local=f"worker-{i}")
        )
    bed.launch(QuarantineWitness(), Rights.all(), agent_local="witness")
    bed.launch(RecoveryProbe(), Rights.all(), agent_local="probe")
    bed.run(detect_deadlock=False)

    supervisor = bed.home.supervisor

    # Well-behaved agents on the other resource complete >= 95%.
    total = sum(OUTCOMES[f"worker-{i}"] for i in range(3))
    assert total >= 0.95 * (3 * 20)
    for image in workers:
        assert bed.home.resident_status(image.name)["status"] == "completed"

    # The runaway struck out (deadline overruns), was killed and audited.
    assert "InvocationDeadlineError" in OUTCOMES["runaway_errors"]
    assert bed.home.resident_status(runaway.name)["status"] == "terminated"
    assert supervisor.stats["agents_killed_runaway"] == 1
    assert bed.home.stats["agents_killed_runaway"] == 1
    kills = bed.home.audit.records(operation="agent.runaway_kill")
    assert kills and not kills[0].allowed
    overruns = bed.home.audit.records(operation="supervisor.overrun")
    assert len(overruns) == supervisor.stats["invocation_deadline_overruns"] >= 3

    # ... and its proxies were revoked through the per-domain index.
    # The ended residency's record is a tombstone: it counts the one
    # binding, and the proxy is the one the runaway held.
    record = bed.home.domain_db.by_agent(runaway.name)
    assert record.binding_count == 1
    assert OUTCOMES["runaway_proxy"].proxy_info()["revoked"]

    # Mid-window callers were shed fast with structured context.
    assert OUTCOMES["witness"] == "quarantined"
    assert OUTCOMES["witness_elapsed"] == 0.0
    assert OUTCOMES["witness_context"]["resource"] == WEDGY
    assert OUTCOMES["witness_context"]["method"] == "size"

    # The resource went healthy -> quarantined -> (probe) -> healthy.
    assert supervisor.stats["quarantines"] >= 1
    assert OUTCOMES["probe"] == "ok"
    assert supervisor.stats["recoveries"] >= 1
    assert supervisor.health_of(URN.parse(WEDGY)).state == "healthy"
    health_audit = bed.home.audit.records(operation="supervisor.health")
    assert any("quarantined" in r.detail for r in health_audit)
    assert any("-> healthy" in r.detail for r in health_audit)

    # Fault bookkeeping: the injector logged both edges of the window.
    kinds = [kind for _, kind, _ in bed.faults().log]
    assert "resource_fault_begin" in kinds and "resource_fault_end" in kinds


# ---------------------------------------------------------------------------
# Guard mechanics (driven directly, no agents needed)
# ---------------------------------------------------------------------------


def guarded_testbed(config: SupervisorConfig) -> Testbed:
    bed = Testbed(1, supervision=config)
    bed.home.install_resource(make_buffer(STEADY))
    return bed


def test_bulkhead_sheds_over_cap_and_recovers():
    bed = guarded_testbed(
        SupervisorConfig(resource_concurrency=1, invoke_deadline=None)
    )
    guard = bed.home.supervisor.guard_of(URN.parse(STEADY))
    first = guard.begin("dom-a", "get")
    with pytest.raises(ResourceOverloadedError) as shed:
        guard.begin("dom-b", "get")
    assert shed.value.context["limit"] == 1
    assert shed.value.context["domain"] == "dom-b"
    assert isinstance(shed.value, SupervisionError)  # availability, not security
    assert guard.bulkhead.shed == 1
    guard.finish(first, None)
    # The slot frees up: the next admission succeeds.
    second = guard.begin("dom-b", "get")
    guard.finish(second, None)
    assert guard.bulkhead.in_flight == 0
    assert guard.bulkhead.peak == 1


def test_domain_inflight_quota_sheds_one_domain_only():
    bed = guarded_testbed(
        SupervisorConfig(
            resource_concurrency=8, domain_inflight_quota=1,
            invoke_deadline=None,
        )
    )
    guard = bed.home.supervisor.guard_of(URN.parse(STEADY))
    hog = guard.begin("dom-hog", "get")
    with pytest.raises(ResourceOverloadedError) as shed:
        guard.begin("dom-hog", "put")
    assert shed.value.context["domain"] == "dom-hog"
    # Other domains are unaffected: that is the point of a *per-domain* quota.
    other = guard.begin("dom-polite", "get")
    guard.finish(other, None)
    guard.finish(hog, None)
    assert bed.home.supervisor.stats["invocations_shed_domain"] == 1


def test_quarantine_single_probe_and_recovery():
    bed = guarded_testbed(
        SupervisorConfig(
            invoke_deadline=None, degraded_after=1, quarantine_after=2,
            probe_after=5.0,
        )
    )
    supervisor = bed.home.supervisor
    guard = supervisor.guard_of(URN.parse(STEADY))
    for _ in range(2):
        ticket = guard.begin("dom", "get")
        guard.finish(ticket, RuntimeError("boom"))
    assert guard.health.state == "quarantined"
    with pytest.raises(ResourceQuarantinedError):
        guard.begin("dom", "get")
    # Dwell past probe_after: the breaker half-opens...
    bed.kernel.schedule_at(10.0, lambda: None)
    bed.run()
    probe = guard.begin("dom", "get")
    assert probe.probe
    # ...but only ONE probe is admitted; a stampede is still shed.
    with pytest.raises(ResourceQuarantinedError):
        guard.begin("dom-2", "get")
    guard.finish(probe, None)
    assert guard.health.state == "healthy"
    assert supervisor.stats["recoveries"] == 1
    assert supervisor.stats["probes_succeeded"] == 1
    # A fresh call is admitted normally again.
    after = guard.begin("dom-3", "get")
    guard.finish(after, None)


def test_failed_probe_reopens_quarantine():
    bed = guarded_testbed(
        SupervisorConfig(
            invoke_deadline=None, degraded_after=1, quarantine_after=2,
            probe_after=5.0,
        )
    )
    guard = bed.home.supervisor.guard_of(URN.parse(STEADY))
    for _ in range(2):
        ticket = guard.begin("dom", "get")
        guard.finish(ticket, RuntimeError("boom"))
    bed.kernel.schedule_at(10.0, lambda: None)
    bed.run()
    probe = guard.begin("dom", "get")
    assert probe.probe
    guard.finish(probe, RuntimeError("still broken"))
    assert guard.health.state == "quarantined"
    assert bed.home.supervisor.stats["probes_failed"] == 1
    with pytest.raises(ResourceQuarantinedError):
        guard.begin("dom", "get")


def test_grant_admission_quota():
    bed = guarded_testbed(
        SupervisorConfig(invoke_deadline=None, domain_grant_quota=0)
    )
    guard = bed.home.supervisor.guard_of(URN.parse(STEADY))
    with pytest.raises(ResourceOverloadedError) as shed:
        guard.admit_grant("dom-greedy", held=0)
    assert shed.value.context["limit"] == 0
    assert bed.home.supervisor.stats["grants_shed"] == 1


def test_registry_concurrency_cap_control():
    from repro.sandbox.threadgroup import enter_group

    bed = guarded_testbed(SupervisorConfig(invoke_deadline=None))
    guard = bed.home.supervisor.guard_of(URN.parse(STEADY))
    with enter_group(bed.home.server_domain.thread_group):
        bed.home.registry.set_concurrency_cap(URN.parse(STEADY), 2)
    assert guard.bulkhead.limit == 2


def test_unsupervised_server_has_plain_proxies():
    bed = Testbed(1)
    resource = make_buffer(STEADY)
    bed.home.install_resource(resource)
    assert bed.home.supervisor is None
    assert resource._supervision is None


def test_supervision_errors_are_not_security_exceptions():
    # Sheds are availability failures: agents must be able to retry them
    # without tripping security-violation handling.
    from repro.errors import SecurityException

    for exc_type in (
        ResourceOverloadedError, ResourceQuarantinedError,
        InvocationDeadlineError,
    ):
        assert issubclass(exc_type, SupervisionError)
        assert not issubclass(exc_type, SecurityException)


# ---------------------------------------------------------------------------
# Metered-budget leg of runaway containment
# ---------------------------------------------------------------------------

PAID = "urn:resource:site0.net/paid-db"


@register_trusted_agent_class
class OverBudgetQuery(Agent):
    """One query that costs more than the runaway budget, then either
    completes at once or blocks (so the deferred kill finds it alive)."""

    def __init__(self) -> None:
        self.linger = 0.0

    def run(self):
        proxy = self.host.get_resource(PAID)
        OUTCOMES["budget_proxy"] = proxy
        proxy.query("*")
        if self.linger:
            self.host.sleep(self.linger)
        self.complete()


def budget_testbed() -> Testbed:
    from repro.apps.database import QueryStore
    from repro.core.accounting import Tariff

    bed = Testbed(
        1,
        supervision=SupervisorConfig(
            invoke_deadline=None, lease_duration=None, runaway_budget=1.0
        ),
    )
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.all(), metered=True, confine=False)]
    )
    bed.home.install_resource(
        QueryStore(URN.parse(PAID), OWNER, policy, initial={"k": 1},
                   tariff=Tariff.of({"query": 5.0}))
    )
    return bed


def test_budget_kill_leaves_a_finished_agent_alone():
    bed = budget_testbed()
    image = bed.launch(OverBudgetQuery(), Rights.all(), agent_local="spender")
    bed.run()
    # The over-budget call was the agent's last: it completed before the
    # deferred kill fired, so the kill finds nothing to contain.
    assert bed.home.resident_status(image.name)["status"] == "completed"
    assert bed.home.stats["agents_completed"] == 1
    assert bed.home.stats["agents_killed_runaway"] == 0
    assert bed.home.supervisor.stats["agents_killed_runaway"] == 0
    assert bed.home.audit.records(operation="agent.runaway_kill") == []


def test_budget_kill_contains_a_blocked_agent():
    bed = budget_testbed()
    agent = OverBudgetQuery()
    agent.linger = 5.0
    image = bed.launch(agent, Rights.all(), agent_local="spender")
    bed.run()
    assert bed.home.resident_status(image.name)["status"] == "terminated"
    assert bed.home.stats["agents_completed"] == 0
    assert bed.home.stats["agents_killed_runaway"] == 1
    assert bed.home.supervisor.stats["agents_killed_runaway"] == 1
    kills = bed.home.audit.records(operation="agent.runaway_kill")
    assert len(kills) == 1 and "1 grant(s) revoked" in kills[0].detail
    record = bed.home.domain_db.by_agent(image.name)
    assert record.binding_count == 1
    assert OUTCOMES["budget_proxy"].proxy_info()["revoked"]
