"""Agent checkpointing and re-homing: the self-healing recovery plane.

PR 2's departure journal protects agents the *sender* knows are in
flight; nothing protects an agent a remote server is currently hosting
when that server fail-stops.  This module closes the gap with an
escrow-at-home scheme:

* Every admission (and a periodic kernel daemon tick while the agent is
  resident — skipped while the captured state's digest matches what the
  home site already holds, so a parked resident costs nothing between
  hops) the hosting server builds an **escrow image** — a sealed
  *virtual departure* from itself back to the agent's home site: the
  current image with this server appended to the trace, the live
  captured state, and (when integrity is on) an appraisal link sealed
  for the hop ``here → home``.  The escrow is pushed one-way to the home
  site over the authenticated ``cluster.checkpoint`` channel and stored
  newest-wins in a :class:`~repro.server.journal.CheckpointStore`.
* When the home site's failure detector confirms a peer dead, the
  :class:`RecoveryCoordinator` **re-homes** every agent checkpointed at
  that peer: it picks a load-aware survivor (gossiped load score =
  residents + in-flight departures + recovery queue depth) from the
  agent's *committed itinerary* (plus the home site itself — always a
  legal fallback, and the only choice `verify_return` accepts outside
  the plan), appends its own hop to the escrow, seals the new tip, and
  offers it through the ordinary exactly-once transfer path.  The
  relaunched agent's own ``transfer_failed`` handling then routes it
  around the dead stop.
* A checkpoint is retired when its agent completes or is terminated
  (accepted only from the server the checkpoint places the agent at),
  and superseded by sequence number when the agent hops onward — a
  stale push can never regress the stored image, and a death confirmed
  *after* the agent already left the dead host finds no checkpoint
  located there.

Duplicate-suppression is belt and braces: only the (unique) home site
re-homes; the replicated directory is consulted so an agent the
directory places elsewhere is skipped as stale; completion reports and
the home domain database veto resurrection of finished agents; and the
re-offer itself rides the PR 2 dedup machinery.

A *flapped* peer (crash + restart faster than the confirm-death
threshold) never triggers the confirmed-dead path, yet its residents
died with the crash.  The membership plane's rebirth callback
(:meth:`~repro.server.membership.Membership.on_new_incarnation`)
routes such peers to :meth:`RecoveryCoordinator.handle_peer_restarted`,
which probes the reborn host per checkpoint before re-homing — a host
that still accounts for the agent (resident, or journaled in-flight)
vetoes the sweep.
"""

from __future__ import annotations

from typing import Any, Collection

from repro.agents.integrity import COMMITMENT_ATTRIBUTE
from repro.agents.itinerary import ItineraryCommitment
from repro.agents.transfer import AgentImage
from repro.errors import (
    NamingError,
    NetworkError,
    ReproError,
    UnknownNameError,
)
from repro.naming.urn import URN
from repro.sim.monitor import Counter
from repro.util.serialization import canonical_digest, decode, encode

__all__ = [
    "CHECKPOINT_APP_KIND",
    "RecoveryCoordinator",
    "directory_vetoes",
]

# The one-way secure-channel application kind checkpoint traffic rides.
CHECKPOINT_APP_KIND = "cluster.checkpoint"

# Virtual seconds between refresh ticks for live residents (between
# ticks, checkpoints happen at hop boundaries, i.e. on admission).
CHECKPOINT_PERIOD = 5.0
# Bound on the secure-channel handshake for a push to (or a probe of)
# an unreachable peer.
CHECKPOINT_TIMEOUT = 5.0


def directory_vetoes(
    name_service: Any, agent: URN, allowed: Collection[str]
) -> bool:
    """The one directory veto both recovery planes consult.

    Journal recovery (``allowed`` = the restarted sender and the
    journaled destination) and escrow re-homing (``allowed`` = the dead
    host) each ask: does a newer residency exist?  The directory is
    updated at every admission, before any escrow push, so a location
    outside ``allowed`` proves one does, and an unregistered name means
    the agent finished or was tombstoned.  Either way, relaunching would
    fork or resurrect it.  An unreachable directory or a ``None``
    location is no veto (availability over precision; transfer-id dedup
    and the finished-agent checks still hold the line).
    """
    if name_service is None:
        return False
    try:
        entry = name_service.lookup(agent)
    except UnknownNameError:
        return True
    except (NamingError, NetworkError, ReproError):
        return False
    location = getattr(entry, "location", None)
    return location is not None and location not in allowed


class RecoveryCoordinator:
    """One server's checkpoint pusher + (as a home site) re-homer."""

    def __init__(self, server: Any) -> None:
        self.server = server
        self.kernel = server.kernel
        self.clock = server.clock
        self.stats = Counter()
        self.store = server.checkpoints  # the home-side CheckpointStore
        self._ticker = None
        self._push_thread = None
        # Escrows built in kernel context, drained by one aux sender.
        self._outbox: list[tuple[str, str | None, bytes]] = []
        # Last escrowed state digest per resident: the refresh tick
        # skips an agent whose state the home site already holds, so a
        # parked (dwelling) resident costs nothing between hops.
        self._fresh: dict[str, bytes] = {}
        self._rehoming = 0
        # (agent, dead host, new host, confirmed_at, relaunched_at) per
        # successful re-home — detection-to-relaunch latency reporting.
        self.rehome_log: list[dict[str, Any]] = []
        server.secure.bind_app(CHECKPOINT_APP_KIND, self._on_checkpoint)
        telemetry = getattr(server, "telemetry", None)
        if telemetry is not None:
            telemetry.register_source("recovery", self.stats)
            telemetry.gauge(
                "recovery.checkpoints", fn=lambda: float(len(self.store))
            )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._ticker is None or self._ticker.cancelled:
            self._ticker = self.kernel.every(
                CHECKPOINT_PERIOD, self._checkpoint_tick, daemon=True
            )

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None
        self._outbox.clear()
        self._fresh.clear()

    def queue_depth(self) -> int:
        """Pending recovery work (feeds the gossiped load score)."""
        return len(self._outbox) + self._rehoming

    # -- checkpoint capture (hosting side) ---------------------------------------

    def escrow_image(self, image: AgentImage, state: dict[str, Any]) -> AgentImage:
        """Build the sealed virtual departure ``here → home`` for ``image``."""
        server = self.server
        escrow = image.with_hop(server.name).with_state(state, image.entry_method)
        if server.integrity is not None:
            escrow = server.integrity.seal_departure(escrow, image.home_site)
        return escrow

    def on_admission(self, image: AgentImage) -> None:
        """Checkpoint a freshly admitted resident (hop boundary).

        Runs in kernel event context (the arrival path): the escrow is
        built here, the network push is deferred to the aux sender.
        """
        self._checkpoint(image, image.state)

    def _checkpoint(self, image: AgentImage, state: dict[str, Any]) -> None:
        server = self.server
        if image.home_site == server.name:
            # An escrow stored in the same failure domain as the
            # resident it would recover protects nothing — it dies with
            # this host.  A home-hosted resident is covered by the
            # departure journal the moment it leaves; until then a
            # checkpoint adds only its sealing cost.
            self.stats.add("checkpoints_local_skipped")
            return
        key = str(image.name)
        escrow = self.escrow_image(image, state)
        seq = (len(escrow.trace), self.clock.now())
        body = encode(
            {
                "op": "checkpoint",
                "image": escrow,
                "location": server.name,
                "seq": list(seq),
            }
        )
        self._outbox.append((image.home_site, key, body))
        self.stats.add("checkpoints_queued")
        self._fresh[key] = canonical_digest(state)
        self._kick_sender()

    def on_resident_gone(self, image: AgentImage, status: str) -> None:
        """A resident finished (completed/terminated): retire its escrow."""
        server = self.server
        self._fresh.pop(str(image.name), None)
        if status == "departed":
            return  # the next host's admission checkpoint supersedes
        if image.home_site == server.name:
            if self.store.retire(str(image.name)) is not None:
                self.stats.add("retires_local")
            return
        body = encode(
            {
                "op": "retire",
                "agent": str(image.name),
                "location": server.name,
            }
        )
        self._outbox.append((image.home_site, None, body))
        self.stats.add("retires_queued")
        self._kick_sender()

    def _checkpoint_tick(self) -> None:
        """Daemon tick: refresh escrows for live residents.

        Kernel context between events — the cooperative scheduler
        guarantees every resident is parked at a blocking point, so
        ``capture_state`` sees a consistent snapshot.
        """
        server = self.server
        for domain_id, image in list(server._resident_images.items()):
            if image.home_site == server.name:
                continue  # nothing to escrow: see _checkpoint
            instance = server._instances.get(domain_id)
            if instance is None or domain_id not in server._threads:
                continue
            try:
                state = instance.capture_state()
            except ReproError:
                continue
            if self._fresh.get(str(image.name)) == canonical_digest(state):
                # The home site already holds exactly this state (the
                # admission push, or an earlier tick): nothing to seal,
                # nothing to send.
                self.stats.add("checkpoints_skipped_fresh")
                continue
            self._checkpoint(image, state)
            self.stats.add("checkpoints_refreshed")

    def _kick_sender(self) -> None:
        if self._push_thread is not None and self._push_thread.is_alive:
            return
        if not self._outbox:
            return
        self._push_thread = self.server._spawn_aux(
            self._drain_outbox, name=f"{self.server.name}/checkpoint-push"
        )

    def _drain_outbox(self) -> None:
        server = self.server
        while self._outbox:
            home, key, body = self._outbox.pop(0)
            try:
                channel = server.secure.connect(
                    home, timeout=CHECKPOINT_TIMEOUT
                )
                channel.send(CHECKPOINT_APP_KIND, body)
                self.stats.add("pushes_sent")
            except (NetworkError, ReproError):
                # Lossy by design: the periodic tick re-pushes soon, and
                # a lost retire is vetoed at re-home time anyway.  The
                # lost push must not count as fresh, or the tick would
                # keep skipping what home never received.
                if key is not None:
                    self._fresh.pop(key, None)
                self.stats.add("pushes_failed")
                server.secure.drop_channel(home)

    # -- checkpoint receipt (home side, kernel event context) ---------------------

    def _on_checkpoint(self, peer: str, body: bytes) -> bytes | None:
        try:
            message = decode(body)
            op = message["op"]
        except (ReproError, KeyError, TypeError):
            self.stats.add("pushes_malformed")
            return None
        if op == "retire":
            self._accept_retire(peer, message)
            return None
        if op == "checkpoint":
            self._accept_checkpoint(peer, message)
            return None
        if op == "probe":
            return self._answer_probe(message)
        self.stats.add("pushes_malformed")
        return None

    def _answer_probe(self, message: dict) -> bytes:
        """Do *we* still account for this agent?  (Hosting-side answer.)

        ``resident`` — alive here right now; ``journaled`` — in flight,
        our own restart recovery owns its delivery; ``unknown`` — we
        hold nothing (a crashed resident: safe to re-home).
        """
        agent = message.get("agent")
        self.stats.add("probes_answered")
        server = self.server
        if any(
            str(image.name) == agent
            for image in server._resident_images.values()
        ):
            state = "resident"
        elif any(
            str(record.image.name) == agent
            for record in server._journal.pending()
        ):
            state = "journaled"
        else:
            state = "unknown"
        return encode({"state": state})

    def _accept_retire(self, peer: str, message: dict) -> None:
        agent = message.get("agent")
        if not isinstance(agent, str):
            self.stats.add("pushes_malformed")
            return
        checkpoint = self.store.get(agent)
        if checkpoint is None:
            return
        if checkpoint.location != peer:
            # Only the server the checkpoint places the agent at may
            # retire it — a lagging (or lying) third party cannot erase
            # another host's escrow.
            self.stats.add("retires_refused")
            self.server.audit.record(
                peer, "recovery.retire", agent, False,
                f"checkpoint is located at {checkpoint.location}",
            )
            return
        self.store.retire(agent)
        self.stats.add("retires_accepted")

    def _accept_checkpoint(self, peer: str, message: dict) -> None:
        server = self.server
        image = message.get("image")
        location = message.get("location")
        seq = message.get("seq")
        if (
            not isinstance(image, AgentImage)
            or not isinstance(location, str)
            or not isinstance(seq, list)
            or len(seq) != 2
        ):
            self.stats.add("pushes_malformed")
            return
        if location != peer or image.home_site != server.name:
            # Escrow for someone else's agent, or a host speaking for a
            # third party: refused and audited.
            self.stats.add("checkpoints_rejected")
            server.audit.record(
                peer, "recovery.checkpoint", str(image.name), False,
                "pusher is not the hosting site or this is not the home site",
            )
            return
        if not image.trace or image.trace[-1] != peer:
            self.stats.add("checkpoints_rejected")
            server.audit.record(
                peer, "recovery.checkpoint", str(image.name), False,
                "escrow trace does not end at the pushing host",
            )
            return
        if server.integrity is not None:
            try:
                # Full arrival appraisal of the virtual departure — the
                # tip must be sealed ``peer → here`` over exactly this
                # state.  The tip is *not* remembered: an escrow is not
                # an admission, and the refreshed push of an unchanged
                # state must not read as a replay.
                server.integrity.verify_arrival(image, peer)
            except ReproError as exc:
                self.stats.add("checkpoints_rejected")
                server.audit.record(
                    peer, "recovery.checkpoint", str(image.name), False,
                    f"escrow failed appraisal: {exc}",
                )
                return
        try:
            seq_key = (int(seq[0]), float(seq[1]))
        except (TypeError, ValueError):
            self.stats.add("pushes_malformed")
            return
        if self.store.put(
            str(image.name), image, location, seq_key, self.clock.now()
        ):
            self.stats.add("checkpoints_accepted")

    # -- re-homing (home side) -----------------------------------------------------

    def handle_confirmed_dead(self, peer: str, incarnation: int) -> None:
        """Failure-detector callback (kernel context): re-home off ``peer``."""
        orphans = self.store.at(peer)
        if not orphans:
            return
        self._rehoming += len(orphans)
        confirmed_at = self.clock.now()
        self.server._spawn_aux(
            lambda: self._rehome_all(peer, orphans, confirmed_at),
            name=f"{self.server.name}/rehome/{peer}",
        )

    def _rehome_all(self, dead: str, orphans: list, confirmed_at: float) -> None:
        for checkpoint in orphans:
            try:
                self._rehome_one(dead, checkpoint, confirmed_at)
            finally:
                self._rehoming = max(0, self._rehoming - 1)

    def handle_peer_restarted(self, peer: str, incarnation: int) -> None:
        """Rebirth callback (kernel context): sweep a flapped peer.

        A crash+restart cycle faster than the detector's confirm-death
        threshold kills the peer's residents but never fires
        :meth:`handle_confirmed_dead` — flap safety holds the view at
        *suspected* until the new incarnation's heartbeat clears it.
        Without this sweep those agents would be lost forever.  Unlike
        the confirmed-dead path the peer is *alive* again, so each
        checkpoint is probed first: the restarted host may still be
        running the agent (our checkpoint was stale) or holding it in
        its recovered departure journal (its own restart recovery owns
        delivery).  Only a ``unknown`` answer — the host accounts for
        nothing — permits re-homing, which closes the race where home
        and the reborn host would otherwise both relaunch the same
        agent.
        """
        orphans = self.store.at(peer)
        if not orphans:
            return
        self._rehoming += len(orphans)
        noticed_at = self.clock.now()
        self.server._spawn_aux(
            lambda: self._rehome_after_restart(peer, orphans, noticed_at),
            name=f"{self.server.name}/rehome-flap/{peer}",
        )

    def _rehome_after_restart(
        self, peer: str, orphans: list, noticed_at: float
    ) -> None:
        server = self.server
        for checkpoint in orphans:
            try:
                try:
                    channel = server.secure.connect(
                        peer, timeout=CHECKPOINT_TIMEOUT
                    )
                    reply = decode(
                        channel.call(
                            CHECKPOINT_APP_KIND,
                            encode({"op": "probe", "agent": checkpoint.agent}),
                            timeout=CHECKPOINT_TIMEOUT,
                        )
                    )
                    state = reply.get("state")
                except (NetworkError, ReproError):
                    # Unreachable again already: leave the checkpoint in
                    # escrow — the detector will confirm death and the
                    # ordinary path takes over.
                    self.stats.add("probes_failed")
                    server.secure.drop_channel(peer)
                    continue
                if state == "resident":
                    self.stats.add("rehomes_vetoed_resident")
                    continue
                if state == "journaled":
                    self.stats.add("rehomes_vetoed_journaled")
                    continue
                self._rehome_one(peer, checkpoint, noticed_at)
            finally:
                self._rehoming = max(0, self._rehoming - 1)

    def _rehome_one(self, dead: str, checkpoint, confirmed_at: float) -> None:
        server = self.server
        agent = checkpoint.agent
        current = self.store.get(agent)
        if current is None or current.seq != checkpoint.seq or current.location != dead:
            self.stats.add("rehomes_superseded")
            return
        if self._already_finished(agent):
            self.store.retire(agent)
            self.stats.add("rehomes_vetoed_finished")
            return
        image = checkpoint.image
        if directory_vetoes(server.name_service, image.name, (dead,)):
            self.stats.add("rehomes_vetoed_stale")
            return
        self.store.retire(agent)
        # Home becomes a relay hop: its own link in the chain lets the
        # survivor's arrival appraisal pass (tip origin == sender).
        target = server._offer_first(
            image.with_hop(server.name),
            self.pick_targets(image, exclude={dead}),
            rehomed=True,
        )
        if target is not None:
            self.stats.add("rehomes_placed")
            self._rehomed(
                agent, dead, target, confirmed_at,
                f"re-homed to {target} after {dead} died",
            )
            return
        # Every survivor refused or is unreachable: the agent runs here.
        try:
            server.admission.validate(image)
            self.stats.add("rehomes_local")
            self._rehomed(
                agent, dead, server.name, confirmed_at,
                f"relaunched at home after {dead} died",
            )
            server._start_resident(image)
        except ReproError as exc:
            self.stats.add("rehomes_stranded")
            server.audit.record(
                server.name, "recovery.rehome", agent, False,
                f"unrecoverable after {dead} died: {exc}",
            )
            self._tombstone(image)

    def _already_finished(self, agent: str) -> bool:
        """Has the home site already seen this agent finish?"""
        server = self.server
        try:
            records = server.domain_db.records_of(URN.parse(agent))
        except ReproError:
            records = []
        if any(r.status == "completed" for r in records):
            return True

        def is_bill(payload: Any) -> bool:
            return isinstance(payload, dict) and payload.get("type") == "bill"

        return any(
            report.get("agent") == agent and not is_bill(report.get("payload"))
            for report in server.reports
        )

    def _rehomed(
        self, agent: str, dead: str, target: str, confirmed_at: float,
        detail: str,
    ) -> None:
        """Book one successful re-home (stats, latency log, audit)."""
        server = self.server
        server.stats.add("agents_rehomed")
        self.rehome_log.append(
            {
                "agent": agent,
                "dead": dead,
                "target": target,
                "confirmed_at": confirmed_at,
                "relaunched_at": self.clock.now(),
            }
        )
        server.audit.record(server.name, "recovery.rehome", agent, True, detail)

    def pick_targets(self, image: AgentImage, exclude: set[str]) -> list[str]:
        """Load-aware placement: planned stops, best survivor first.

        Candidates come from the committed itinerary (any other choice
        would be rejected by the home-side ``verify_return`` appraisal
        when the tour ends).  Confirmed-dead and draining hosts are
        filtered on the local membership view; survivors are ordered by
        the gossiped load score, name as the deterministic tie-break.
        """
        commitment = image.attributes.get(COMMITMENT_ATTRIBUTE)
        stops: list[str] = []
        if isinstance(commitment, ItineraryCommitment):
            for stop in commitment.stops:
                stop_server = stop[0] if isinstance(stop, (tuple, list)) else stop
                if isinstance(stop_server, str) and stop_server not in stops:
                    stops.append(stop_server)
        membership = getattr(self.server, "membership", None)
        candidates = []
        for stop_server in stops:
            if stop_server in exclude or stop_server == self.server.name:
                continue
            if membership is not None:
                if not membership.is_alive(stop_server):
                    continue
                if membership.is_draining(stop_server):
                    continue
            candidates.append(stop_server)
        load = membership.load_of if membership is not None else (lambda _n: 0.0)
        return sorted(candidates, key=lambda name: (load(name), name))

    def _tombstone(self, image: AgentImage) -> None:
        """Reclaim the directory entry of an unrecoverable agent."""
        name_service = self.server.name_service
        token = image.attributes.get("ns_token")
        if name_service is None or not token:
            return
        try:
            name_service.unregister(image.name, token)
            self.stats.add("tombstones")
        except (NamingError, UnknownNameError, NetworkError, ReproError):
            self.stats.add("tombstones_failed")
