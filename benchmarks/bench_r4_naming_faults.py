"""R4 — directory lookup availability under replica faults (replicated NS).

The replicated naming layer (quorum directory, hinted handoff,
anti-entropy — PR 8) exists so "where is agent X" keeps answering while
directory nodes crash or the network degrades.  This experiment
quantifies it on the N=3 / W=2 / R=2 configuration:

- a continuous register/lookup/relocate workload against one shard's
  names while a fault window ``[30 s, 60 s)`` hits that shard:
  (a) a single-replica crash (restart at 60 s), and
  (b) a 30%-per-frame loss burst on every server link of two of the
  three replicas — a majority of the shard behind a partition you can
  only occasionally shout across, leaving quorum reads to scraps and
  the one clean minority replica;
- **lookup availability** inside the window — a lookup counts as
  available if it returns a record at all, fresh *or* stale-but-flagged
  (the degraded-read contract) — with a >= 99% target;
- the conservation oracle after heal + anti-entropy: every registration
  the client committed must be resolvable, fully replicated (3/3), and
  the replica groups divergence-free.

Replayed under three seeds; the table reports each run.
"""

from __future__ import annotations

from repro.errors import NetworkError, ReproError, UnknownNameError
from repro.naming.urn import URN
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.retry import RetryPolicy

from _common import write_table

SEEDS = (7401, 7402, 7403)
WINDOW = (30.0, 60.0)
HORIZON = 150.0


def shard_names(ring, shard, count):
    out, i = [], 0
    while len(out) < count:
        name = URN.parse(f"urn:agent:r4.net/a{i}")
        if ring.shard_for(name) == shard:
            out.append(name)
        i += 1
    return out


def run_scenario(fault: str, seed: int) -> dict:
    bed = Testbed(
        2,
        seed=seed,
        replicated_name_service=True,
        ns_anti_entropy=5.0,
        ns_timeout=2.0,
        # Loss-window tuning: keep trying lossy replicas (generous breaker
        # budget, fast half-open) and retry a round further than default.
        ns_retry=RetryPolicy(attempts=4, base_delay=0.2, max_delay=1.0),
        ns_breaker_threshold=8,
        ns_breaker_reset=5.0,
    )
    ring = bed.ns_ring
    shard = ring.shard_ids()[0]
    replicas = ring.replicas(shard)
    if fault == "crash":
        bed.faults().crash(
            bed.ns_host(replicas[0]), WINDOW[0], restart_at=WINDOW[1]
        )
    elif fault == "loss30":
        for node in replicas[:2]:  # a majority of the shard goes lossy
            for server in bed.servers:
                bed.faults().loss_burst(
                    server.name, node,
                    at=WINDOW[0], duration=WINDOW[1] - WINDOW[0],
                    loss_rate=0.3,
                )
    else:  # pragma: no cover - config error
        raise ValueError(fault)

    # Distinct clients (distinct breaker state): write-side refusals must
    # not poison the read path whose availability we are measuring.
    client = bed.servers[1].name_service
    reader_client = bed.home.name_service
    pool = shard_names(ring, shard, 40)
    committed: list[tuple[URN, str]] = []
    counts = {
        "lookups": 0, "lookups_window": 0, "ok_window": 0,
        "stale_window": 0, "failed_window": 0,
        "registers_refused": 0, "relocates_refused": 0,
    }

    def in_window() -> bool:
        return WINDOW[0] <= bed.clock.now() < WINDOW[1]

    def writer():
        thread = bed.kernel.current_thread()
        for i, name in enumerate(pool):
            try:
                token = client.register(name, bed.home.name)
                committed.append((name, token))
            except (NetworkError, ReproError):
                counts["registers_refused"] += 1
            if committed and i % 4 == 3:
                target, token = committed[(i // 4) % len(committed)]
                try:
                    client.relocate(target, token, bed.servers[1].name)
                except (NetworkError, UnknownNameError, ReproError):
                    counts["relocates_refused"] += 1
            thread.sleep(2.0)

    def reader():
        thread = bed.kernel.current_thread()
        thread.sleep(3.0)  # let the first registration land
        while bed.clock.now() < HORIZON - 30.0:
            if committed:
                name, _ = committed[counts["lookups"] % len(committed)]
                windowed = in_window()
                counts["lookups"] += 1
                counts["lookups_window"] += windowed
                try:
                    record = reader_client.lookup(name)
                    if windowed:
                        counts["ok_window"] += 1
                        counts["stale_window"] += bool(
                            record.attributes.get("ns.stale")
                        )
                except (NetworkError, ReproError):
                    if windowed:
                        counts["failed_window"] += 1
            thread.sleep(0.5)

    SimThread(bed.kernel, writer, "r4-writer").start()
    for i in range(3):  # concurrent readers: more in-window samples
        SimThread(bed.kernel, reader, f"r4-reader{i}").start()
    bed.run(until=HORIZON)

    # Heal is long past; force one more explicit anti-entropy round so the
    # conservation claim is "after heal + one repair round", not "after
    # whenever the sweep timers happened to fire".
    def final_repair():
        for host in bed.ns_hosts.values():
            host.anti_entropy_round()

    SimThread(bed.kernel, final_repair, "r4-repair").start()
    bed.run(until=HORIZON + 30.0)

    conserved = all(
        bed.name_service.contains(name)
        and bed.name_service.replicas_holding(name) == 3
        for name, _ in committed
    )
    divergences = len(bed.name_service.divergences())
    scrape = bed.scrape()
    hints = sum(
        v for k, v in scrape.items()
        if k.startswith("ns_replica.hints_delivered")
    )
    repaired = sum(
        v for k, v in scrape.items()
        if k.startswith("ns_replica.repair_records_in")
    )
    window_total = counts["lookups_window"]
    availability = (
        counts["ok_window"] / window_total if window_total else float("nan")
    )
    return {
        "fault": fault,
        "seed": seed,
        "availability": availability,
        "window_lookups": window_total,
        "stale": counts["stale_window"],
        "failed": counts["failed_window"],
        "committed": len(committed),
        "refused": counts["registers_refused"],
        "relocates_refused": counts["relocates_refused"],
        "conserved": conserved,
        "divergences": divergences,
        "hints": hints,
        "repaired": repaired,
    }


def test_crash_window_availability(benchmark):
    m = benchmark.pedantic(
        lambda: run_scenario("crash", SEEDS[0]), rounds=1, iterations=1
    )
    assert m["availability"] >= 0.99
    assert m["conserved"] and m["divergences"] == 0


def test_loss_window_availability(benchmark):
    m = benchmark.pedantic(
        lambda: run_scenario("loss30", SEEDS[0]), rounds=1, iterations=1
    )
    assert m["availability"] >= 0.99
    assert m["conserved"] and m["divergences"] == 0


def test_table_r4(benchmark):
    def build():
        rows = []
        for fault, label in (("crash", "replica crash"),
                             ("loss30", "30% loss burst")):
            for seed in SEEDS:
                m = run_scenario(fault, seed)
                assert m["availability"] >= 0.99, m
                assert m["conserved"], m
                assert m["divergences"] == 0, m
                rows.append([
                    label,
                    seed,
                    f"{m['availability']:.1%}",
                    f"{m['window_lookups']}",
                    m["stale"],
                    m["failed"],
                    f"{m['committed']}/40",
                    m["refused"],
                    m["hints"],
                    m["repaired"],
                    "yes" if m["conserved"] and m["divergences"] == 0
                    else "NO",
                ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "R4",
        "directory availability under replica faults (N=3 W=2 R=2)",
        ["fault", "seed", "avail", "lookups", "stale", "failed",
         "committed", "refused", "hints", "repaired", "conserved"],
        rows,
        seed=list(SEEDS),
        headline=(
            "worst in-window lookup availability",
            min(float(r[2].rstrip("%")) for r in rows), "%",
        ),
        notes=(
            "availability = in-window lookups answered (fresh or"
            " stale-but-flagged) / attempted, fault window 30-60s of a"
            " 150s run, one shard targeted.  'committed' counts"
            " registrations the client quorum-acked; every one must"
            " resolve with 3/3 replicas holding it after heal plus one"
            " explicit anti-entropy round (conserved), with zero"
            " divergent replica groups.  Hints/repaired show which"
            " repair path did the catching up."
        ),
    )
