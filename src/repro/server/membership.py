"""Lease/heartbeat failure detection: the cluster membership view.

The paper's protected-resource model assumes agent servers stay up; the
self-healing control plane starts by noticing when one does not.  Every
:class:`~repro.server.agent_server.AgentServer` runs a
:class:`FailureDetector` that

* sends periodic one-way **heartbeats** to its peers over the existing
  mutually authenticated secure channels (app kind
  ``cluster.heartbeat``), carrying this server's **incarnation number**,
  a composite **load score** (residents + in-flight departures + pending
  relaunch offers — the placement scorer's input) and a *draining* flag;
* maintains a per-peer membership view driven by a kernel daemon sweep:
  ``alive`` → ``suspected`` (no heartbeat for ``suspect_after``) →
  ``confirmed-dead`` (silent for ``confirm_after``), at which point the
  registered ``on_confirmed_dead`` callbacks fire (the recovery
  coordinator re-homes the dead server's checkpointed agents);
* is **flap-safe** via incarnations: a peer confirmed dead at
  incarnation *k* is only revived by a heartbeat carrying an incarnation
  *> k* — :meth:`AgentServer.restart` bumps the local incarnation, so a
  genuinely restarted server announces itself as a new life while a
  delayed pre-crash heartbeat cannot resurrect a corpse.  Two further
  mechanisms let a healed symmetric partition — both sides believing the
  other dead — reconverge without an operator: confirmed-dead peers
  still receive occasional *rejoin probes* (every
  ``dead_probe_every``-th round), and each heartbeat gossips the
  sender's verdict on the *receiver* ("you are dead to me at
  incarnation *k*"), which the receiver refutes by bumping its own
  incarnation past *k*.

Everything is published through the PR 9 telemetry plane: the detector
registers its counters as a ``membership`` source and serves
``membership.alive`` / ``membership.suspected`` / ``membership.dead`` /
``membership.incarnation`` gauges, so a federated scrape shows every
host's view of the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NetworkError, ReproError
from repro.sim.monitor import Counter
from repro.util.serialization import decode, encode

__all__ = [
    "HEARTBEAT_APP_KIND",
    "ALIVE",
    "SUSPECTED",
    "CONFIRMED_DEAD",
    "MembershipConfig",
    "PeerView",
    "FailureDetector",
]

# The secure-channel application kind heartbeats travel on.
HEARTBEAT_APP_KIND = "cluster.heartbeat"

# Virtual seconds between state sweeps (silence checks).
SWEEP_PERIOD = 1.0
# Bound on the secure-channel handshake to an unresponsive peer, so one
# dead host cannot stall a whole heartbeat round for the default 30s
# connect timeout.
HEARTBEAT_TIMEOUT = 2.0

# Peer lifecycle states (strings so views serialize/log naturally).
ALIVE = "alive"
SUSPECTED = "suspected"
CONFIRMED_DEAD = "confirmed-dead"


@dataclass(frozen=True, slots=True)
class MembershipConfig:
    """Failure-detector knobs, all in virtual seconds.

    ``suspect_after`` and ``confirm_after`` are silence thresholds
    measured from the last heartbeat received (or from :meth:`start`,
    so freshly joined peers get a grace period rather than being born
    suspect).
    """

    heartbeat_period: float = 2.0
    suspect_after: float = 5.0
    confirm_after: float = 10.0
    # Confirmed-dead peers are still probed every Nth round (rejoin
    # probes): after a symmetric partition heals, both sides believe
    # the other dead, and without an occasional corpse-directed
    # heartbeat a restarted peer's higher incarnation could never reach
    # anyone — permanent mutual death.  Every round would work too, but
    # each truly dead peer then costs a connect timeout per round.
    dead_probe_every: int = 5

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0:
            raise ReproError("heartbeat_period must be positive")
        if self.dead_probe_every < 1:
            raise ReproError("dead_probe_every must be >= 1")
        if not 0 < self.suspect_after < self.confirm_after:
            raise ReproError(
                "need 0 < suspect_after < confirm_after "
                f"(got {self.suspect_after}, {self.confirm_after})"
            )


@dataclass(slots=True)
class PeerView:
    """One peer, as this detector currently believes it to be."""

    name: str
    state: str = ALIVE
    incarnation: int = 0
    last_seen: float = 0.0
    load: float = 0.0
    draining: bool = False
    # When the peer entered its current state (detection latency math).
    state_since: float = 0.0


class FailureDetector:
    """One server's membership view of its peers.

    Owns two kernel daemon ticks (heartbeat rounds and the sweep) —
    daemons, so an otherwise-finished world still quiesces.  Heartbeat
    *sending* blocks on secure channels and therefore runs in aux
    simulated threads spawned via the server's ``_spawn_aux`` (which
    also means :meth:`AgentServer.crash` kills an in-flight round, as a
    real crash would).
    """

    def __init__(self, server: Any, config: MembershipConfig | None = None) -> None:
        self.server = server
        self.config = config or MembershipConfig()
        self.kernel = server.kernel
        self.clock = server.clock
        self.stats = Counter()
        self.incarnation = 0
        self.draining = False
        self._views: dict[str, PeerView] = {}
        self._callbacks: list[Callable[[str, int], None]] = []
        self._incarnation_callbacks: list[Callable[[str, int], None]] = []
        self._hb_ticker = None
        self._sweep_ticker = None
        self._round_thread = None
        self._round_no = 0
        self._armed = False  # start() called (ticks may defer on no peers)
        # (virtual time, event, peer) transition log for tests/benches.
        self.log: list[tuple[float, str, str]] = []
        server.secure.bind_app(HEARTBEAT_APP_KIND, self._on_heartbeat)
        telemetry = getattr(server, "telemetry", None)
        if telemetry is not None:
            telemetry.register_source("membership", self.stats)
            telemetry.gauge(
                "membership.alive", fn=lambda: float(self._count(ALIVE))
            )
            telemetry.gauge(
                "membership.suspected",
                fn=lambda: float(self._count(SUSPECTED)),
            )
            telemetry.gauge(
                "membership.dead",
                fn=lambda: float(self._count(CONFIRMED_DEAD)),
            )
            telemetry.gauge(
                "membership.incarnation", fn=lambda: float(self.incarnation)
            )

    # -- wiring ----------------------------------------------------------------

    def set_peers(self, peers: "list[str] | tuple[str, ...]") -> None:
        """Declare the peer set to monitor (idempotent, additive)."""
        now = self.clock.now()
        for name in peers:
            if name == self.server.name:
                continue
            self._views.setdefault(
                name, PeerView(name=name, last_seen=now, state_since=now)
            )
        if self._armed and self._views and self._hb_ticker is None:
            self.start()  # a deferred start() was waiting for peers

    def on_confirmed_dead(self, callback: Callable[[str, int], None]) -> None:
        """Register a death callback: ``callback(peer, incarnation)``.

        Fired from kernel context exactly once per (peer, incarnation)
        confirmation — callbacks must not block (spawn a thread).
        """
        self._callbacks.append(callback)

    def on_new_incarnation(self, callback: Callable[[str, int], None]) -> None:
        """Register a rebirth callback: ``callback(peer, incarnation)``.

        Fired from kernel context whenever a heartbeat moves a peer's
        incarnation *up* — a restart that beat the death confirmation
        (the flapping-host case: residents died with the crash, but the
        peer came back before the detector could confirm anything).
        The recovery plane uses this to sweep for orphaned checkpoints
        without waiting for a confirmation that will never come.
        """
        self._incarnation_callbacks.append(callback)

    def start(self) -> None:
        """Begin heartbeat rounds and the state sweep (daemon ticks).

        With an empty peer set (a single-node cluster) there is nothing
        to monitor and nobody to tell: the ticks stay unarmed until
        :meth:`set_peers` first delivers a peer, so a solo server pays
        the detector nothing.
        """
        self._armed = True
        if not self._views:
            return
        if self._hb_ticker is None or self._hb_ticker.cancelled:
            now = self.clock.now()
            for view in self._views.values():
                # Fresh grace window: silence before start() is not
                # evidence (the detector was not listening yet).
                if view.state is not CONFIRMED_DEAD:
                    view.last_seen = max(view.last_seen, now)
            self._hb_ticker = self.kernel.every(
                self.config.heartbeat_period, self._heartbeat_tick, daemon=True
            )
            self._sweep_ticker = self.kernel.every(
                SWEEP_PERIOD, self._sweep, daemon=True
            )

    def stop(self) -> None:
        """Stop both ticks (server crashed or is shutting down)."""
        self._armed = False
        for ticker in (self._hb_ticker, self._sweep_ticker):
            if ticker is not None:
                ticker.cancel()
        self._hb_ticker = self._sweep_ticker = None

    def bump_incarnation(self) -> int:
        """A new life for this server (called by ``restart()``)."""
        self.incarnation += 1
        return self.incarnation

    # -- views -----------------------------------------------------------------

    def view_of(self, peer: str) -> PeerView | None:
        return self._views.get(peer)

    def state_of(self, peer: str) -> str:
        view = self._views.get(peer)
        return view.state if view is not None else ALIVE

    def is_alive(self, peer: str) -> bool:
        return self.state_of(peer) != CONFIRMED_DEAD

    def load_of(self, peer: str) -> float:
        view = self._views.get(peer)
        return view.load if view is not None else 0.0

    def is_draining(self, peer: str) -> bool:
        view = self._views.get(peer)
        return view.draining if view is not None else False

    def alive_peers(self) -> list[str]:
        return sorted(
            name
            for name, view in self._views.items()
            if view.state != CONFIRMED_DEAD
        )

    def view(self) -> dict[str, dict[str, Any]]:
        """The whole membership table (operator/test view)."""
        return {
            name: {
                "state": v.state,
                "incarnation": v.incarnation,
                "last_seen": v.last_seen,
                "load": v.load,
                "draining": v.draining,
            }
            for name, v in sorted(self._views.items())
        }

    def _count(self, state: str) -> int:
        return sum(1 for v in self._views.values() if v.state == state)

    # -- heartbeat sending -------------------------------------------------------

    def local_load(self) -> float:
        """This server's composite placement load score.

        residents + in-flight journaled departures + pending relaunch
        offers (the recovery coordinator's queue depth).
        """
        server = self.server
        load = float(len(server._threads)) + float(len(server._journal))
        recovery = getattr(server, "recovery", None)
        if recovery is not None:
            load += float(recovery.queue_depth())
        return load

    def _heartbeat_tick(self) -> None:
        # Kernel context: spawn one aux thread per round; skip the round
        # entirely if the previous one is still draining (a dead peer's
        # connect timeout must not stack rounds).
        if self._round_thread is not None and self._round_thread.is_alive:
            self.stats.add("heartbeat_rounds_skipped")
            return
        self._round_no += 1
        probe_dead = self._round_no % self.config.dead_probe_every == 0
        targets = [
            name
            for name, view in self._views.items()
            if view.state != CONFIRMED_DEAD or probe_dead
        ]
        if not targets:
            return
        self._round_thread = self.server._spawn_aux(
            lambda: self._send_round(targets),
            name=f"{self.server.name}/heartbeat",
        )

    def _send_round(self, targets: list[str]) -> None:
        for peer in sorted(targets):
            view = self._views.get(peer)
            # Per-peer verdict gossip: "I currently hold *you* dead at
            # incarnation k".  The receiver refutes by outbidding k (see
            # :meth:`_on_heartbeat`) — that is what lets a healed
            # symmetric partition reconverge without an operator.
            dead_at = (
                view.incarnation
                if view is not None and view.state == CONFIRMED_DEAD
                else None
            )
            body = encode(
                {
                    "incarnation": self.incarnation,
                    "load": self.local_load(),
                    "draining": bool(self.draining),
                    "you_dead_at": dead_at,
                }
            )
            try:
                channel = self.server.secure.connect(
                    peer, timeout=HEARTBEAT_TIMEOUT
                )
                channel.send(HEARTBEAT_APP_KIND, body)
                self.stats.add("heartbeats_sent")
            except (NetworkError, ReproError):
                # Silence is the signal; the peer's sweep does the rest.
                self.stats.add("heartbeats_failed")
                self.server.secure.drop_channel(peer)

    # -- heartbeat receipt (kernel event context — never blocks) -----------------

    def _on_heartbeat(self, peer: str, body: bytes) -> None:
        try:
            beat = decode(body)
            incarnation = int(beat["incarnation"])
            load = float(beat["load"])
            draining = bool(beat["draining"])
            you_dead_at = beat.get("you_dead_at")
            if you_dead_at is not None:
                you_dead_at = int(you_dead_at)
        except (ReproError, KeyError, TypeError, ValueError):
            self.stats.add("heartbeats_malformed")
            return
        self.stats.add("heartbeats_received")
        if you_dead_at is not None and self.incarnation <= you_dead_at:
            # Refutation: an authenticated live peer holds *this* server
            # confirmed-dead at an incarnation we are still using.  It
            # cannot tell our heartbeats from a zombie's until we outbid
            # the incarnation it buried, so bump past it.  Idempotent:
            # once bumped, later copies of the same verdict are stale.
            self.incarnation = you_dead_at + 1
            self.stats.add("refutations")
        now = self.clock.now()
        view = self._views.get(peer)
        if view is None:
            # An unsolicited but authenticated peer: adopt it.
            view = self._views[peer] = PeerView(
                name=peer, last_seen=now, state_since=now
            )
        if incarnation < view.incarnation:
            # A delayed heartbeat from a previous life: not evidence.
            self.stats.add("heartbeats_stale")
            return
        if view.state == CONFIRMED_DEAD:
            if incarnation <= view.incarnation:
                # Flap safety: only a *new* incarnation revives a corpse.
                self.stats.add("heartbeats_stale")
                return
            self.stats.add("peer_revivals")
            self._transition(view, ALIVE, now)
        elif view.state == SUSPECTED:
            self.stats.add("suspicions_cleared")
            self._transition(view, ALIVE, now)
        reborn = incarnation > view.incarnation
        view.incarnation = incarnation
        view.last_seen = now
        view.load = load
        view.draining = draining
        if reborn:
            self.stats.add("incarnation_advances")
            for callback in list(self._incarnation_callbacks):
                callback(peer, incarnation)

    # -- the sweep ----------------------------------------------------------------

    def _sweep(self) -> None:
        now = self.clock.now()
        self.stats.add("sweeps")
        for view in self._views.values():
            silent = now - view.last_seen
            if view.state == ALIVE and silent >= self.config.suspect_after:
                self.stats.add("suspicions")
                self._transition(view, SUSPECTED, now)
            if view.state == SUSPECTED and silent >= self.config.confirm_after:
                self.stats.add("deaths_confirmed")
                self._transition(view, CONFIRMED_DEAD, now)
                self.server.audit.record(
                    self.server.name, "membership.confirm_dead", view.name,
                    True, f"silent {silent:.1f}s at incarnation {view.incarnation}",
                )
                for callback in list(self._callbacks):
                    callback(view.name, view.incarnation)

    def _transition(self, view: PeerView, state: str, now: float) -> None:
        self.log.append((now, state, view.name))
        view.state = state
        view.state_since = now
