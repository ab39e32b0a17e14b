"""The transfer-failure split: breaker fast-fails vs exhausted retries.

Every failed departure bumps ``transfers_failed`` and exactly one of its
two disjoint causes, ``transfers_failed_breaker`` ("the circuit breaker
refused to even try") or ``transfers_failed_exhausted`` ("every retry
failed"), so the total always equals the sum of its parts.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.server import agent_server
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy


@register_trusted_agent_class
class OneHopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest:
            dest, self.dest = self.dest, ""
            self.go(dest, "run")
        self.complete()


def hopper_to(dest):
    agent = OneHopper()
    agent.dest = dest
    return agent


@pytest.fixture()
def dead_destination_world():
    """Two servers, the link down, a hair-trigger breaker."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent_server, "BREAKER_FAILURE_THRESHOLD", 2)
        patch.setattr(agent_server, "BREAKER_RESET_TIMEOUT", 1000.0)
        bed = Testbed(
            2,
            server_kwargs={
                "transfer_timeout": 5.0,
                "transfer_retry": RetryPolicy(attempts=2, base_delay=0.5,
                                              jitter=0.0),
            },
        )
        bed.network.set_link_state(bed.home.name, bed.servers[1].name, False)
        yield bed


def test_exhaustion_and_fastfail_hit_separate_counters(dead_destination_world):
    bed = dead_destination_world
    dest = bed.servers[1].name

    # First departure: both attempts time out -> retries exhausted.
    # (Its two failures also open the destination's breaker.)
    a1 = bed.launch(hopper_to(dest), Rights.all(), agent_local="a1")
    bed.run(detect_deadlock=False)
    stats = bed.home.stats
    assert stats["transfers_failed_exhausted"] == 1
    assert stats["transfers_failed_breaker"] == 0
    assert stats["transfers_failed"] == (
        stats["transfers_failed_breaker"] + stats["transfers_failed_exhausted"]
    )
    assert bed.home.resident_status(a1.name)["status"] == "terminated"

    # Second departure: the open breaker refuses before any attempt.
    a2 = bed.launch(hopper_to(dest), Rights.all(), agent_local="a2")
    bed.run(detect_deadlock=False)
    assert stats["transfers_failed_exhausted"] == 1
    assert stats["transfers_failed_breaker"] == 1
    assert stats["transfers_failed"] == (
        stats["transfers_failed_breaker"] + stats["transfers_failed_exhausted"]
    )
    assert bed.home.resident_status(a2.name)["status"] == "terminated"


def test_scrape_surfaces_alias_and_parts(dead_destination_world):
    bed = dead_destination_world
    bed.launch(hopper_to(bed.servers[1].name), Rights.all())
    bed.run(detect_deadlock=False)
    scrape = bed.scrape()
    home = bed.home.name
    assert scrape[f"server.transfers_failed{{server={home}}}"] == 1
    assert scrape[f"server.transfers_failed_exhausted{{server={home}}}"] == 1
