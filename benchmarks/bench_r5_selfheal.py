"""R5 — self-healing under a hard mid-tour server crash.

One of four servers fail-stops (no restart) in the middle of a wave of
24 three-hop tours.  The self-healing plane — lease/heartbeat failure
detection, escrow checkpoints, load-aware re-homing — must keep the
wave honest:

- **completion**: >= 95% of tours still finish (the baseline row shows
  what happens without the plane: every agent dwelling on the dead
  server is simply gone);
- **conservation**: zero agents lost (no copy stranded ``running``, no
  agent without a terminal record) and zero double-completions, with
  the healed conservation residual exactly 0;
- **latency**: detection (crash -> confirmed dead) and relaunch
  (confirmed -> re-homed copy running) are reported per seed;
- **calm-path price**: enabling the plane on R2's calm workload (no
  faults, no hops) costs <= 3% of the simulator's deterministic work
  (kernel events processed) — the calm path seals and sends nothing;
  the heartbeat mesh's fixed-rate cost is priced separately, per
  heartbeat.

``python benchmarks/bench_r5_selfheal.py --quick`` runs the reduced CI
tripwire: one seed, crash wave only, hard assertions.

Replayed under three seeds; the table reports each run.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.agents.agent import register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.credentials.rights import Rights
from repro.obs.slo import healed_conservation_residual
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

from _common import write_table

SEEDS = (7501, 7502, 7503)
TOURS = 24
CRASH_AT = 6.0
HORIZON = 300.0


@register_trusted_agent_class
class R5Tourist(ItineraryAgent):
    dwell = 1.0

    def visit(self, stop):
        self.host.sleep(self.dwell)

    def finish(self):
        self.complete({"done": True})


def launch_wave(bed: Testbed):
    workers = bed.servers[1:]
    images = []
    for i in range(TOURS):
        agent = R5Tourist()
        # Staggered dwells spread the wave over every tour phase, so
        # the crash catches residents, in-flight transfers and
        # not-yet-arrived agents alike.
        agent.dwell = 0.5 + (i % 8) * 0.75
        stops = [workers[(i + j) % len(workers)].name for j in range(3)]
        agent.itinerary = Itinerary.tour(stops)
        images.append(bed.launch(agent, Rights.all()))
    return images


def account(bed: Testbed, images) -> dict:
    lost = doubled = completed = 0
    for image in images:
        statuses = []
        for server in bed.servers:
            statuses.extend(
                r.status for r in server.domain_db.records_of(image.name)
            )
        if statuses.count("running") or not statuses:
            lost += 1
        if statuses.count("completed") > 1:
            doubled += 1
        completed += statuses.count("completed") == 1
    return {
        "completed": completed,
        "lost": lost,
        "doubled": doubled,
        "residual": healed_conservation_residual(bed.servers)(),
    }


def run_wave(self_heal: bool, crash: bool, seed: int) -> dict:
    bed = Testbed(
        4,
        seed=seed,
        self_healing=self_heal,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=4, base_delay=1.0, jitter=0.0
            ),
        },
    )
    home = bed.home
    victim = bed.servers[1]
    images = launch_wave(bed)
    if crash:
        bed.faults().crash(victim, at=CRASH_AT)  # hard: never restarts
    wall_start = time.perf_counter()
    bed.run(until=HORIZON, detect_deadlock=False)
    wall = time.perf_counter() - wall_start
    out = account(bed, images)
    out.update({
        "seed": seed,
        "wall": wall,
        "killed": victim.stats["agents_killed_crash"],
        # Secure-channel handshakes run (initiator side), all servers.
        "handshakes": sum(
            s.secure.stats["channels_initiated"] for s in bed.servers
        ),
        "rehomed": 0,
        "detect_s": float("nan"),
        "relaunch_s": float("nan"),
    })
    if self_heal and crash:
        confirmed = [
            t for t, state, peer in home.membership.log
            if state == "confirmed-dead" and peer == victim.name
        ]
        if confirmed:
            out["detect_s"] = confirmed[0] - CRASH_AT
        log = home.recovery.rehome_log
        out["rehomed"] = len(log)
        if log:
            out["relaunch_s"] = statistics.mean(
                e["relaunched_at"] - e["confirmed_at"] for e in log
            )
    return out


def calm_overhead() -> dict:
    """Price the plane's calm path on R2's calm workload.

    Two figures, deliberately separated:

    - ``overhead_pct`` — plane on vs off on R2's calm workload exactly
      as R2 defines it (six home-hosted agents doing lookups, no
      faults, no hops).  The ratio compares the simulator's
      deterministic work metric, kernel events processed: a ~5ms wave's
      wall-clock is thread-handoff scheduler jitter on shared hardware
      (pair-to-pair ratios swing +-20%, measured), while the event
      count is exact and replayable under the fixed seed.  The calm
      plane must be near-free: admission escrow never fires (a
      checkpoint stored in the host's own failure domain protects
      nothing and is skipped), the refresh tick digest-skips parked
      residents, and a peerless detector never arms its ticks.
    - ``mesh_ms_per_beat`` — the *fixed-rate* price of the heartbeat
      mesh, from re-running the same wave on this bench's 4-server
      cluster: (on - off) wall divided by heartbeats sent.  Heartbeat
      cost scales with cluster size and elapsed time, not with agent
      work, so it is priced per heartbeat instead of being folded into
      a ratio against an otherwise idle workload.
    """
    from bench_r2_overload import run_wave as r2_calm

    solo = {
        self_heal: r2_calm(False, runaways=0, self_healing=self_heal)
        for self_heal in (False, True)
    }
    mesh = {True: 0.0, False: 0.0}
    beats = 0
    for _ in range(3):
        for self_heal in (False, True):
            m = r2_calm(
                False, runaways=0, servers=4, self_healing=self_heal
            )
            mesh[self_heal] += m["wall"]
            beats += m["heartbeats"]
    return {
        "on_events": solo[True]["events"],
        "off_events": solo[False]["events"],
        "on_ms": solo[True]["wall"] * 1e3,
        "off_ms": solo[False]["wall"] * 1e3,
        "overhead_pct": (
            solo[True]["events"] / max(solo[False]["events"], 1) - 1.0
        ) * 100.0,
        "mesh_ms_per_beat": (
            (mesh[True] - mesh[False]) * 1e3 / max(beats, 1)
        ),
    }


# -- pytest-benchmark entry points -------------------------------------------


def test_selfheal_crash_wave(benchmark):
    m = benchmark.pedantic(
        lambda: run_wave(True, True, SEEDS[0]), rounds=1, iterations=1
    )
    assert m["completed"] >= TOURS * 0.95
    assert m["lost"] == 0 and m["doubled"] == 0
    assert m["residual"] == 0
    assert m["rehomed"] >= 1  # the crash caught someone resident


def test_baseline_crash_wave(benchmark):
    m = benchmark.pedantic(
        lambda: run_wave(False, True, SEEDS[0]), rounds=1, iterations=1
    )
    # Without the plane the dead server's residents are simply gone.
    assert m["completed"] < TOURS


def test_table_r5(benchmark):
    def build():
        rows, completed = [], 0
        for seed in SEEDS:
            healed = run_wave(True, True, seed)
            completed += healed["completed"]
            assert healed["completed"] >= TOURS * 0.95, healed
            assert healed["lost"] == 0, healed
            assert healed["doubled"] == 0, healed
            assert healed["residual"] == 0, healed
            base = run_wave(False, True, seed)
            rows.append([
                "self-healing", seed,
                f"{healed['completed']}/{TOURS}",
                f"{healed['completed'] / TOURS:.0%}",
                healed["lost"], healed["doubled"],
                healed["killed"], healed["rehomed"],
                f"{healed['detect_s']:.1f}s",
                f"{healed['relaunch_s'] * 1e3:.0f}ms",
                healed["handshakes"],
                "yes" if healed["residual"] == 0 else "NO",
            ])
            rows.append([
                "baseline (no plane)", seed,
                f"{base['completed']}/{TOURS}",
                f"{base['completed'] / TOURS:.0%}",
                base["lost"], base["doubled"],
                base["killed"], 0, "-", "-", base["handshakes"],
                "yes" if base["residual"] == 0 else "NO",
            ])
        calm = calm_overhead()
        # The acceptance bar: enabling the plane on R2's calm workload
        # must cost <= 3% — with escrow skipped for home-domain
        # residents, the refresh tick digest-skipping parked agents,
        # and a peerless detector never arming its ticks, the calm
        # path seals nothing and sends nothing.
        assert calm["overhead_pct"] <= 3.0, calm
        rows.append([
            "calm overhead (R2 calm workload)", "",
            f"{calm['off_events']} ev off", f"{calm['on_events']} ev on",
            "", "", "", "", "", f"{calm['overhead_pct']:+.1f}%", "", "",
        ])
        rows.append([
            "heartbeat mesh price (4 servers, fixed-rate)", "",
            "", "", "", "", "", "", "",
            f"{calm['mesh_ms_per_beat']:.2f}ms/beat", "", "",
        ])
        return rows, completed / (TOURS * len(SEEDS))

    rows, completion = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "R5",
        "self-healing: hard crash of 1-of-4 servers mid-tour",
        ["config", "seed", "tours", "rate", "lost", "doubled", "killed",
         "rehomed", "detect", "relaunch", "handshakes", "conserved"],
        rows,
        seed=list(SEEDS),
        headline=("self-healing tour completion", completion, "ratio"),
        notes=(
            "24 three-hop tours; one worker fail-stops at t=6s and never"
            " returns.  'killed' counts residents that died with the"
            " crash; every one must be re-homed (escrow checkpoint ->"
            " load-aware survivor) and complete exactly once: lost ="
            " agents with no terminal record or a copy still marked"
            " running, doubled = agents completing twice — both must be"
            " zero, with the healed conservation residual 0.  detect ="
            " crash to confirmed-dead (lease/heartbeat walk), relaunch ="
            " confirmed to the re-homed copy running, handshakes = secure"
            " channels set up across the cluster.  The baseline rows"
            " run the identical wave without the plane.  The last rows"
            " price the calm path: plane on vs off on R2's calm"
            " workload, compared on kernel events processed — the"
            " simulator's deterministic work metric; wall ratios of a"
            " ~5ms wave are scheduler jitter (acceptance: <= 3% —"
            " escrow is skipped for home-domain residents, the refresh"
            " tick digest-skips parked agents, and a peerless detector"
            " never arms, so a calm server seals and sends nothing) —"
            " and the heartbeat mesh's fixed-rate cost per beat, which"
            " scales with cluster size and time rather than with agent"
            " work."
        ),
    )


# -- the CI tripwire ----------------------------------------------------------


def run_quick() -> int:
    failures: list[str] = []
    m = run_wave(True, True, SEEDS[0])
    checks = (
        (m["completed"] >= TOURS * 0.95,
         f"completion {m['completed']}/{TOURS} (>= 95% required)"),
        (m["lost"] == 0, f"agents lost: {m['lost']}"),
        (m["doubled"] == 0, f"double-completions: {m['doubled']}"),
        (m["residual"] == 0, f"conservation residual: {m['residual']}"),
        (m["rehomed"] >= 1,
         f"re-homed residents: {m['rehomed']} (>= 1, else vacuous)"),
        (m["detect_s"] == m["detect_s"] and m["detect_s"] < 30.0,
         f"detection latency: {m['detect_s']:.1f}s (< 30s)"),
    )
    for ok, message in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {message}")
        if not ok:
            failures.append(message)
    if failures:
        print("\nR5 smoke FAILED")
        return 1
    print("\nR5 smoke OK")
    return 0


def main(argv: list[str]) -> int:
    if "--quick" in argv:
        return run_quick()
    import pytest

    return pytest.main(
        ["-q", __file__, "--benchmark-only", "-p", "no:randomly"]
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
