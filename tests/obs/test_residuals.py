"""Conservation residuals and the audit-drop count, read directly."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.obs.slo import agent_conservation_residual
from repro.server.testbed import Testbed


@register_trusted_agent_class
class _ChattyAgent(Agent):
    """Floods its host's audit log via the always-allowed log() call."""

    def run(self):
        for i in range(self.n):
            self.host.log(f"note {i}")
        self.complete("done")


def test_saturated_audit_log_counts_its_drops():
    bed = Testbed(1, seed=31, server_kwargs={"audit_capacity": 32})
    agent = _ChattyAgent()
    agent.n = 200
    bed.launch(agent, Rights.none())
    bed.run()
    assert bed.home.audit.dropped > 0
    # The same signal is a registered metric on the telemetry plane.
    scrape = bed.scrape()
    key = f"audit.dropped{{server={bed.home.name}}}"
    assert scrape[key] == bed.home.audit.dropped
    unit_scrape = bed.home.telemetry.snapshot().counters
    assert unit_scrape[key] == bed.home.audit.dropped
    occupancy = bed.home.audit.as_dict()["occupancy"]
    assert occupancy == pytest.approx(1.0)


def test_unsaturated_audit_log_drops_nothing():
    bed = Testbed(1, seed=32)
    agent = _ChattyAgent()
    agent.n = 3
    bed.launch(agent, Rights.none())
    bed.run()
    assert bed.home.audit.dropped == 0


def test_agent_conservation_law_holds_at_quiescence():
    bed = Testbed(3, seed=33)

    @register_trusted_agent_class
    class _Hopper(Agent):
        def run(self):
            while self.tour:
                self.go(self.tour.pop(0), "run")
            self.complete("done")

    agent = _Hopper()
    agent.tour = [s.name for s in bed.servers][1:]
    bed.launch(agent, Rights.none())
    bed.run()
    assert agent_conservation_residual(bed.servers)() == 0
    assert sum(s.audit.dropped for s in bed.servers) == 0
