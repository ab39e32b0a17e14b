"""Federation-scale stress: many agents, hostile links, global invariants.

Eight servers, a few dozen agents with randomized itineraries, adversaries
on several links.  After the dust settles:

* **conservation** — every launched agent reaches exactly one terminal
  state somewhere (no limbo, no duplication of completions);
* **containment** — no resource method an agent wasn't granted ever
  executed (checked against every server's audit trail and buffers);
* **detection** — attacked frames were rejected, never delivered.
"""

from __future__ import annotations

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.net.adversary import Replayer, Tamperer
from repro.server.testbed import Testbed
from repro.util.rng import make_rng

N_SERVERS = 8
N_AGENTS = 30


@register_trusted_agent_class
class StressRoamer(Agent):
    """Visits a random route, appending a token at allowed buffers."""

    def __init__(self) -> None:
        self.route = []
        self.token = ""
        self.appended = 0

    def run(self):
        authority = self.host.server_name().split(":")[2].split("/")[0]
        try:
            buf = self.host.get_resource(f"urn:resource:{authority}/drop")
            buf.put(self.token)
            self.appended += 1
        except Exception:  # noqa: BLE001 - denied at some servers, that's fine
            pass
        if self.route:
            nxt = self.route.pop(0)
            self.go(nxt, "run")
        self.host.report_home({"appended": self.appended})
        self.complete()


def build_federation(seed=2026):
    bed = Testbed(N_SERVERS, seed=seed, topology="full",
                  server_kwargs={"transfer_timeout": 30.0})
    rng = make_rng(seed, "stress")
    buffers = {}
    for index, server in enumerate(bed.servers):
        authority = server.name.split(":")[2].split("/")[0]
        # Even-indexed servers allow put; odd ones are read-only.
        if index % 2 == 0:
            policy = SecurityPolicy(rules=[
                PolicyRule("any", "*", Rights.of("Buffer.put", "Buffer.size")),
            ])
        else:
            policy = SecurityPolicy(rules=[
                PolicyRule("any", "*", Rights.of("Buffer.size")),
            ])
        buf = Buffer(URN.parse(f"urn:resource:{authority}/drop"),
                     URN.parse(f"urn:principal:{authority}/o"), policy)
        server.install_resource(buf)
        buffers[server.name] = (index, buf)
    # Hostile taps on a few interior links (both attack classes).
    names = [s.name for s in bed.servers]
    bed.network.link(names[2], names[3]).add_tap(
        Tamperer(make_rng(seed, "tamper"), rate=0.4)
    )
    bed.network.link(names[4], names[5]).add_tap(Replayer(copies=1))
    return bed, rng, buffers


def test_federation_invariants():
    bed, rng, buffers = build_federation()
    names = [s.name for s in bed.servers]
    launched = []
    for i in range(N_AGENTS):
        agent = StressRoamer()
        route_len = rng.randrange(1, 5)
        agent.route = [names[rng.randrange(N_SERVERS)] for _ in range(route_len)]
        agent.token = f"tok-{i}"
        image = bed.launch(agent, Rights.of("Buffer.put", "Buffer.size"),
                           agent_local=f"roamer-{i}")
        launched.append(image)
    bed.run(detect_deadlock=False)

    # --- conservation: every agent has >= 1 record, exactly one of which
    # is terminal-but-not-departed (completed/terminated), across servers.
    terminal_counts = {str(img.name): 0 for img in launched}
    for server in bed.servers:
        for record in server.domain_db._records.values():
            key = str(record.agent)
            assert record.status in ("completed", "terminated", "departed",
                                     "running")
            assert record.status != "running", (
                f"{key} still running on {server.name}"
            )
            if record.status in ("completed", "terminated"):
                terminal_counts[key] += 1
    for agent_name, count in terminal_counts.items():
        assert count == 1, f"{agent_name} has {count} terminal records"

    # --- containment: odd servers' buffers stayed empty (put never granted).
    for server_name, (index, buf) in buffers.items():
        if index % 2 == 1:
            assert buf.size() == 0, f"write leaked into read-only {server_name}"

    # --- accounting: everything reported was really stored.  (Strict
    # equality can't hold: an agent killed mid-route by the tampered link
    # appended tokens but never lived to report them.)
    reported_appends = sum(
        r["payload"]["appended"]
        for s in bed.servers
        for r in s.reports
        if "appended" in r.get("payload", {})
    )
    stored = sum(buf.size() for _idx, buf in buffers.values())
    assert reported_appends <= stored
    killed = sum(s.stats["transfers_failed"] +
                 s.stats["transfers_refused_remote"] for s in bed.servers)
    if killed == 0:
        assert reported_appends == stored

    # --- detection: attacked links produced rejections, not deliveries.
    # A tampered frame can fail at any layer: AEAD tag (rejected_tampered),
    # outer frame decode (rejected_malformed), or a handshake flight
    # (handshake_*); corrupted *replies* are dropped by correlation-id
    # mismatch and surface as sender-side transfer failures instead.
    rejected = sum(
        s.secure.stats["rejected_tampered"]
        + s.secure.stats["rejected_replayed"]
        + s.secure.stats["rejected_malformed"]
        + s.secure.stats["handshake_malformed"]
        + s.secure.stats["handshake_rejected"]
        + s.stats["transfers_failed"]
        for s in bed.servers
    )
    tampered = sum(
        tap.tampered_count
        for link in [bed.network.link(names[2], names[3])]
        for tap in link._taps
    )
    if tampered:
        assert rejected > 0

    # --- the transfer-failure split: each failure has exactly one cause.
    for s in bed.servers:
        assert s.stats["transfers_failed"] == (
            s.stats["transfers_failed_breaker"]
            + s.stats["transfers_failed_exhausted"]
        ), s.name


def test_federation_is_deterministic():
    def fingerprint() -> tuple:
        bed, rng, buffers = build_federation(seed=911)
        names = [s.name for s in bed.servers]
        for i in range(10):
            agent = StressRoamer()
            agent.route = [names[rng.randrange(N_SERVERS)] for _ in range(3)]
            agent.token = f"tok-{i}"
            bed.launch(agent, Rights.of("Buffer.put", "Buffer.size"),
                       agent_local=f"d-{i}")
        bed.run(detect_deadlock=False)
        return (
            bed.clock.now(),
            tuple(sorted(
                (s.name, s.stats["agents_hosted"], s.stats["transfers_in"])
                for s in bed.servers
            )),
            tuple(sorted(buf.size() for _i, buf in buffers.values())),
        )

    assert fingerprint() == fingerprint()
