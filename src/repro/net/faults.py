"""Deterministic, schedule-driven fault injection for experiments.

A :class:`FaultInjector` turns a handful of adversity primitives — link
flaps, partitions, loss bursts, server crash/restart — into kernel
events: a test or benchmark declares its whole fault schedule up front
and then simply runs the simulation.  Everything keys off the virtual
clock, and loss bursts draw from seeded RNG substreams
(:func:`repro.util.rng.make_rng`), so a given schedule replays
bit-for-bit across runs.

The injector never reaches into protocol internals: links go down via
:meth:`Network.set_link_state` (routing recomputes, messages in flight
on the link are lost), loss is the links' own Bernoulli drop, and a
crash is whatever the crashed object's ``crash()``/``restart()`` methods
implement (duck-typed; :class:`repro.server.agent_server.AgentServer`
provides the fail-stop-with-journal semantics).

**Malicious hosts** (the red-team campaign of the integrity layer) are
the one exception to the wire-only rule: :meth:`FaultInjector.compromise`
installs a :class:`MaliciousHost` controller as a server's
``outbound_tamper`` hook, turning that server into an adversary that
rewrites agent state, edits travel history, forges itineraries, diverts
agents to a colluding partner, or captures images for later replay
(:meth:`FaultInjector.replay_capture`).  Behaviors are pure functions
over the outgoing ``(image, destination)`` pair, composed in order, so a
scenario is declared the same way a link flap is — scheduled up front,
deterministic, and annotated in the fault log and trace.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.agents.integrity import APPRAISAL_ATTRIBUTE, COMMITMENT_ATTRIBUTE
from repro.agents.itinerary import ItineraryCommitment
from repro.agents.transfer import AgentImage
from repro.crypto.mac import HmacKey
from repro.errors import ReproError
from repro.net.network import Network
from repro.obs import runtime as _obs
from repro.sim.kernel import Kernel
from repro.sim.monitor import Counter
from repro.sim.threads import SimThread
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode

__all__ = [
    "FaultInjector",
    "MaliciousHost",
    "capture",
    "drop_hop",
    "forge_itinerary",
    "redirect",
    "reorder_hops",
    "strip_chain",
    "strip_delegation",
    "strip_itinerary",
    "tamper_state",
]

# A malicious-host behavior: rewrites what a compromised server is about
# to put on the wire.  Composable; applied in order.
Behavior = Callable[
    ["MaliciousHost", AgentImage, str], "tuple[AgentImage, str]"
]


class MaliciousHost:
    """One compromised server's outbound-tamper controller.

    Installed (and removed) on schedule by
    :meth:`FaultInjector.compromise`; every agent the server forwards
    while compromised passes through the behavior list.  The controller
    keeps what the behaviors saw (``captured``) and how often it fired
    (``applied``) for test assertions.
    """

    def __init__(
        self, injector: "FaultInjector", server: Any, behaviors: tuple
    ) -> None:
        self.injector = injector
        self.server = server
        self.behaviors = behaviors
        self.applied = 0
        self.captured: list[tuple[AgentImage, str]] = []

    def __call__(
        self, image: AgentImage, destination: str
    ) -> tuple[AgentImage, str]:
        for behavior in self.behaviors:
            image, destination = behavior(self, image, destination)
        self.applied += 1
        self.injector._note(
            "malice_applied",
            f"{getattr(self.server, 'name', self.server)}->{destination}",
        )
        return image, destination


# -- behaviors (the attack catalogue) ---------------------------------------


def tamper_state(**updates: Any) -> Behavior:
    """State rewrite: doctor the captured state *after* it was sealed."""

    def behavior(host, image, destination):
        return (
            dataclasses.replace(image, state={**image.state, **updates}),
            destination,
        )

    return behavior


def drop_hop(index: int = -1) -> Behavior:
    """Hop deletion: erase one visited server from history (trace + link)."""

    def behavior(host, image, destination):
        chain = image.attributes.get(APPRAISAL_ATTRIBUTE) or ()
        trace = list(image.trace)
        if chain and len(trace) == len(chain):
            idx = index % len(chain)
            chain = tuple(link for i, link in enumerate(chain) if i != idx)
            del trace[idx]
        return (
            dataclasses.replace(
                image, trace=tuple(trace)
            ).with_attributes(**{APPRAISAL_ATTRIBUTE: chain}),
            destination,
        )

    return behavior


def reorder_hops(i: int = 0, j: int = 1) -> Behavior:
    """Hop reorder: swap two entries of the travel history."""

    def behavior(host, image, destination):
        chain = list(image.attributes.get(APPRAISAL_ATTRIBUTE) or ())
        trace = list(image.trace)
        if len(chain) > max(i, j) and len(trace) == len(chain):
            chain[i], chain[j] = chain[j], chain[i]
            trace[i], trace[j] = trace[j], trace[i]
        return (
            dataclasses.replace(
                image, trace=tuple(trace)
            ).with_attributes(**{APPRAISAL_ATTRIBUTE: tuple(chain)}),
            destination,
        )

    return behavior


def strip_chain() -> Behavior:
    """Remove the appraisal record entirely (a host hiding all history)."""

    def behavior(host, image, destination):
        attributes = {
            k: v
            for k, v in image.attributes.items()
            if k != APPRAISAL_ATTRIBUTE
        }
        return dataclasses.replace(image, attributes=attributes), destination

    return behavior


def forge_itinerary(
    stops: "tuple[tuple[str, str], ...]", key: bytes = b"attacker"
) -> Behavior:
    """Forged itinerary entries: substitute a commitment over ``stops``.

    The attacker MACs the forgery under its own key — the best it can do
    without the home server's secret — so the home-side re-appraisal
    fails the commitment check.
    """

    def behavior(host, image, destination):
        original = image.attributes.get(COMMITMENT_ATTRIBUTE)
        forged = ItineraryCommitment.issue(
            HmacKey(key),
            agent=str(image.name),
            home=original.home if original is not None else image.home_site,
            stops=stops,
            issued_at=original.issued_at if original is not None else 0.0,
        )
        return (
            image.with_attributes(**{COMMITMENT_ATTRIBUTE: forged}),
            destination,
        )

    return behavior


def strip_itinerary() -> Behavior:
    """Drop the itinerary commitment (detected at home: it was sealed)."""

    def behavior(host, image, destination):
        attributes = {
            k: v
            for k, v in image.attributes.items()
            if k != COMMITMENT_ATTRIBUTE
        }
        return dataclasses.replace(image, attributes=attributes), destination

    return behavior


def strip_delegation() -> Behavior:
    """Delegation abuse: shed every attenuating link from the carried
    credentials, regaining the owner-granted rights a forwarding host
    deliberately narrowed.  The stripped chain still *verifies* (each
    link is self-certifying, and zero links is a valid chain) — what
    catches it is the appraisal seal, whose state digest covers the
    credentials as forwarded."""

    def behavior(host, image, destination):
        credentials = image.credentials
        if getattr(credentials, "links", ()):
            credentials = dataclasses.replace(credentials, links=())
            image = dataclasses.replace(image, credentials=credentials)
        return image, destination

    return behavior


def redirect(to: str) -> Behavior:
    """Collusion: divert the agent to a partner host off the sealed path."""

    def behavior(host, image, destination):
        return image, to

    return behavior


def capture() -> Behavior:
    """Passive capture: record the sealed image for later replay."""

    def behavior(host, image, destination):
        host.captured.append((image, destination))
        return image, destination

    return behavior


class FaultInjector:
    """Schedules faults against one network on one kernel."""

    def __init__(self, kernel: Kernel, network: Network, seed: int = 0) -> None:
        self.kernel = kernel
        self.network = network
        self._seed = seed
        self._burst_ids = 0
        self._bursts: dict[int, list[float]] = {}
        # name → severed (a, b) pairs, for named partition/heal pairs.
        self._partitions: dict[str, list[tuple[str, str]]] = {}
        # Partitions already restored: a second heal is a logged no-op.
        self._healed: set[str] = set()
        self.stats = Counter()
        # (virtual time, kind, detail) — what actually fired, for tests
        # and for annotating benchmark output.
        self.log: list[tuple[float, str, str]] = []

    def _note(self, kind: str, detail: str) -> None:
        self.stats.add(kind)
        self.log.append((self.kernel.now(), kind, detail))
        if _obs.TRACING:
            # ``injected=True`` distinguishes scheduled adversity from
            # organic failures when reading a trace.
            _obs.annotate(f"fault.{kind}", detail, injected=True)

    # -- link failures -------------------------------------------------------

    def link_down(
        self, a: str, b: str, at: float, *, duration: float | None = None
    ) -> None:
        """Take the ``a``<->``b`` connection down at virtual time ``at``.

        With ``duration`` the connection comes back by itself; without,
        it stays down until an explicit :meth:`link_up`.
        """
        self.kernel.schedule_at(at, self._set_link, a, b, False)
        if duration is not None:
            self.kernel.schedule_at(at + duration, self._set_link, a, b, True)

    def link_up(self, a: str, b: str, at: float) -> None:
        self.kernel.schedule_at(at, self._set_link, a, b, True)

    def flap(
        self, a: str, b: str, *, start: float, period: float,
        down_for: float, count: int,
    ) -> None:
        """``count`` down/up cycles: down at ``start + k*period``, each
        outage lasting ``down_for`` (must be < ``period`` to be a flap)."""
        for k in range(count):
            self.link_down(a, b, start + k * period, duration=down_for)

    def partition(
        self,
        group_a: list[str],
        group_b: list[str],
        at: float,
        *,
        duration: float | None = None,
    ) -> int:
        """Cut every direct link between the two groups at ``at``.

        Returns how many connections the partition severs.  (Only direct
        links are cut; if the topology routes around the cut, the groups
        can still talk — that is the experiment's business.)
        """
        pairs = [
            (a, b)
            for a in group_a
            for b in group_b
            if self.network.has_link(a, b)
        ]
        for a, b in pairs:
            self.link_down(a, b, at, duration=duration)
        return len(pairs)

    def named_partition(
        self,
        name: str,
        group_a: list[str],
        group_b: list[str],
        *,
        at: float,
        heal_at: float | None = None,
    ) -> int:
        """A :meth:`partition` with a name, begin/heal log events, and an
        explicit heal handle.

        Replication experiments schedule several overlapping partition
        windows and assert on them individually; the name ties the
        ``partition_begin:<name>`` / ``partition_heal:<name>`` fault-log
        entries (and trace annotations) to the scenario step.  Pass
        ``heal_at`` to schedule the heal up front, or call
        :meth:`heal_partition` later.  Returns how many direct links the
        partition severs (computed now, against the current topology).
        """
        if name in self._partitions:
            raise ValueError(f"partition {name!r} already scheduled")
        pairs = [
            (a, b)
            for a in group_a
            for b in group_b
            if self.network.has_link(a, b)
        ]
        self._partitions[name] = pairs
        self.kernel.schedule_at(at, self._begin_partition, name)
        if heal_at is not None:
            if heal_at <= at:
                raise ValueError("heal_at must be after the partition time")
            self.heal_partition(name, at=heal_at)
        return len(pairs)

    def heal_partition(self, name: str, *, at: float) -> None:
        """Restore every link a named partition severed, at time ``at``.

        Idempotent: healing a partition that was never scheduled, or one
        already healed, is a logged no-op — recovery orchestration (and
        chaos scripts replaying fault plans) may issue belt-and-braces
        heals without tracking which fired first.
        """
        if name not in self._partitions:
            self._note(
                f"partition_heal_noop:{name}",
                f"unknown partition {name!r} (nothing to heal)",
            )
            return
        self.kernel.schedule_at(at, self._heal_partition, name)

    def _begin_partition(self, name: str) -> None:
        pairs = self._partitions.get(name, ())
        for a, b in pairs:
            self.network.set_link_state(a, b, False)
        self._healed.discard(name)
        self._note(f"partition_begin:{name}", f"{len(pairs)} links cut")

    def _heal_partition(self, name: str) -> None:
        if name in self._healed:
            self._note(
                f"partition_heal_noop:{name}", "already healed (no-op)"
            )
            return
        pairs = self._partitions.get(name, ())
        for a, b in pairs:
            self.network.set_link_state(a, b, True)
        self._healed.add(name)
        self._note(f"partition_heal:{name}", f"{len(pairs)} links restored")

    def _set_link(self, a: str, b: str, up: bool) -> None:
        self.network.set_link_state(a, b, up)
        self._note("link_up" if up else "link_down", f"{a}<->{b}")

    # -- loss bursts ---------------------------------------------------------

    def loss_burst(
        self, a: str, b: str, *, at: float, duration: float, loss_rate: float
    ) -> None:
        """Degrade both directions of ``a``<->``b`` to ``loss_rate`` for
        the window ``[at, at+duration)``, then restore the previous rates.

        The burst's drop decisions come from a dedicated seeded
        substream, so adding a burst never perturbs other randomness.
        """
        token = self._burst_ids
        self._burst_ids += 1
        self.kernel.schedule_at(at, self._begin_burst, token, a, b, loss_rate)
        self.kernel.schedule_at(at + duration, self._end_burst, token, a, b)

    def _begin_burst(self, token: int, a: str, b: str, loss_rate: float) -> None:
        saved: list[float] = []
        for src, dst in ((a, b), (b, a)):
            link = self.network.link(src, dst)
            saved.append(link.loss_rate)
            link.set_loss_rate(
                loss_rate, make_rng(self._seed, f"burst{token}:{src}->{dst}")
            )
        self._bursts[token] = saved
        self._note("loss_burst_begin", f"{a}<->{b} rate={loss_rate}")

    def _end_burst(self, token: int, a: str, b: str) -> None:
        saved = self._bursts.pop(token, None)
        if saved is None:  # pragma: no cover - defensive
            return
        for (src, dst), rate in zip(((a, b), (b, a)), saved):
            self.network.link(src, dst).set_loss_rate(rate)
        self._note("loss_burst_end", f"{a}<->{b}")

    # -- crashes -------------------------------------------------------------

    def crash(
        self, server: Any, at: float, *, restart_at: float | None = None
    ) -> None:
        """Fail-stop ``server`` at ``at``; optionally restart it later.

        ``server`` is duck-typed: anything with ``crash()`` and
        ``restart()`` (and a ``name`` for the log) works.
        """
        self.kernel.schedule_at(at, self._crash, server)
        if restart_at is not None:
            if restart_at <= at:
                raise ValueError("restart_at must be after the crash time")
            self.kernel.schedule_at(restart_at, self._restart, server)

    def _crash(self, server: Any) -> None:
        server.crash()
        self._note("crashes", getattr(server, "name", repr(server)))

    def _restart(self, server: Any) -> None:
        server.restart()
        self._note("restarts", getattr(server, "name", repr(server)))

    # -- malicious hosts (red-team campaign) -----------------------------------

    def compromise(
        self,
        server: Any,
        *behaviors: Behavior,
        at: float,
        duration: float | None = None,
    ) -> MaliciousHost:
        """Turn ``server`` hostile at ``at``: every agent it forwards is
        run through ``behaviors`` (see the module-level attack catalogue).

        With ``duration`` the compromise ends by itself (the hook is
        removed, but only if it is still this controller's — a later
        re-compromise is not clobbered).  Returns the controller, whose
        ``captured``/``applied`` fields the red-team suite asserts on.
        ``server`` is duck-typed: anything with an ``outbound_tamper``
        attribute and a ``name`` works.
        """
        controller = MaliciousHost(self, server, behaviors)
        self.kernel.schedule_at(at, self._install_malice, server, controller)
        if duration is not None:
            if duration <= 0:
                raise ValueError("compromise duration must be positive")
            self.kernel.schedule_at(
                at + duration, self._remove_malice, server, controller
            )
        return controller

    def _install_malice(self, server: Any, controller: MaliciousHost) -> None:
        server.outbound_tamper = controller
        self._note("host_compromised", getattr(server, "name", repr(server)))

    def _remove_malice(self, server: Any, controller: MaliciousHost) -> None:
        if server.outbound_tamper is controller:
            server.outbound_tamper = None
            self._note("host_restored", getattr(server, "name", repr(server)))

    def replay_capture(
        self,
        server: Any,
        controller: MaliciousHost,
        *,
        at: float,
        index: int = 0,
        destination: str | None = None,
    ) -> None:
        """Replay a captured agent image from ``server`` at time ``at``.

        The replayed offer carries a *fresh* transfer id (a replaying
        attacker is not going to reuse the one the dedup table already
        answered), so only the integrity layer's chain-tip replay record
        can catch it.  ``index`` picks which capture; ``destination``
        overrides the captured one.
        """

        def launch_replay() -> None:
            if index >= len(controller.captured):
                self._note("replay_skipped", "nothing captured")
                return

            image, original_destination = controller.captured[index]
            target = destination or original_destination
            fresh = image.with_attributes(
                transfer_id=server._transfer_ids.next()
            )

            def offer() -> None:
                try:
                    reply = decode(server.secure.call(
                        target, "atp.transfer", encode(fresh)
                    ))
                    self._note(
                        "replay_offered",
                        f"{getattr(server, 'name', server)}->{target} "
                        f"status={reply.get('status')}",
                    )
                except ReproError as exc:
                    self._note("replay_failed", f"{target}: {exc}")

            SimThread(
                self.kernel, offer,
                name=f"replay/{getattr(server, 'name', 'host')}",
                on_error="store",
            ).start()

        self.kernel.schedule_at(at, launch_replay)

    # -- resource faults -------------------------------------------------------

    def resource_fault(
        self,
        server: Any,
        resource: Any,
        *,
        at: float,
        duration: float | None = None,
        method: str | None = None,
        mode: str = "error",
        wedge_for: float = 60.0,
    ) -> None:
        """Degrade one supervised resource for a window starting at ``at``.

        ``mode="error"`` makes supervised invocations of ``resource`` on
        ``server`` fail immediately with
        :class:`~repro.errors.ResourceFaultError`; ``mode="wedge"`` parks
        each invoking thread for ``wedge_for`` virtual seconds first —
        the degradation the supervisor's watchdog scores as a deadline
        overrun.  ``method=None`` hits the whole interface.  With
        ``duration`` the fault clears by itself.  Requires the server to
        be running with supervision enabled (duck-typed: anything with a
        ``supervisor`` exposing ``inject_fault``/``clear_fault`` works).
        """
        if mode not in ("error", "wedge"):
            raise ValueError(f"unknown resource-fault mode {mode!r}")
        self.kernel.schedule_at(
            at, self._begin_resource_fault, server, resource, mode, method,
            wedge_for,
        )
        if duration is not None:
            if duration <= 0:
                raise ValueError("fault duration must be positive")
            self.kernel.schedule_at(
                at + duration, self._end_resource_fault, server, resource,
                method,
            )

    def _begin_resource_fault(
        self, server: Any, resource: Any, mode: str, method: str | None,
        wedge_for: float,
    ) -> None:
        server.supervisor.inject_fault(
            resource, mode=mode, method=method, wedge_for=wedge_for
        )
        self._note(
            "resource_fault_begin",
            f"{getattr(server, 'name', server)}:{resource} mode={mode}",
        )

    def _end_resource_fault(
        self, server: Any, resource: Any, method: str | None
    ) -> None:
        server.supervisor.clear_fault(resource, method=method)
        self._note(
            "resource_fault_end",
            f"{getattr(server, 'name', server)}:{resource}",
        )
