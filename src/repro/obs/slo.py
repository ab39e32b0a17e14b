"""Conservation residuals: the agent-accounting laws as zero-valued checks.

Each factory takes a fleet of servers and returns a residual function
whose only acceptable value is zero.  :func:`agent_conservation_residual`
is ``hosted − transfers_out − completions − residents``;
:func:`healed_conservation_residual` also nets out every forcible
removal (:data:`FORCIBLE_REMOVAL_COUNTERS`), so it stays zero through
crashes, drains and re-homing.  The chaos suite, R5 and the end-to-end
workloads assert them after ``kernel.run()`` drains.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = [
    "agent_conservation_residual",
    "healed_conservation_residual",
    "FORCIBLE_REMOVAL_COUNTERS",
]


def agent_conservation_residual(servers: Iterable[Any]) -> Callable[[], int]:
    """``hosted − transfers_out − completions − residents`` over a fleet.

    A true any-time law: every admission is either still resident,
    departed onward, or completed — so a watchdog can sweep a *busy*
    world without tripping on agents that are merely mid-tour (at
    quiescence ``residents`` is zero and this reduces to the familiar
    hosted == out + completed).  Forcible terminations (security kills,
    lifetime limits, crashes) legitimately leave a positive residual —
    add their counters to the expectation in scenarios that use them.
    """
    fleet = list(servers)

    def residual() -> int:
        hosted = sum(s.stats["agents_hosted"] for s in fleet)
        out = sum(s.stats["transfers_out"] for s in fleet)
        completed = sum(s.stats["agents_completed"] for s in fleet)
        resident = sum(s.current_residents() for s in fleet)
        return hosted - out - completed - resident

    return residual


# Every counter that records a forcible removal of a resident: the
# server popped the thread without a matching departure or completion.
FORCIBLE_REMOVAL_COUNTERS = (
    "agents_killed_crash",
    "agents_killed_drain",
    "agents_killed_lifetime",
    "agents_killed_security",
    "agents_terminated_by_owner",
    "agents_terminated_transfer",
    "agents_failed",
    "agents_failed_materialize",
)


def healed_conservation_residual(servers: Iterable[Any]) -> Callable[[], int]:
    """The conservation law with forcible removals accounted for.

    The base residual counts +1 for every resident a server forcibly
    removed (crash, drain, lifetime, security, owner command, transfer
    exhaustion, agent bug): the admission was counted but no departure
    or completion ever balances it.  Each such removal also bumps
    exactly one kill counter, and every self-healing relaunch (re-home
    at a survivor, re-home at home, drain fallback) is a fresh
    ``agents_hosted`` admission balanced by its own eventual outcome —
    so ``base residual − Σ kill counters`` is identically zero for a
    correctly accounting fleet, *through* crashes, drains and re-homing.
    A positive value means an agent evaporated without its removal being
    recorded; a negative one means double accounting (e.g. the same
    agent admitted twice for one handoff).
    """
    fleet = list(servers)
    base = agent_conservation_residual(fleet)

    def residual() -> int:
        removed = sum(
            s.stats[counter]
            for s in fleet
            for counter in FORCIBLE_REMOVAL_COUNTERS
        )
        return base() - removed

    return residual
