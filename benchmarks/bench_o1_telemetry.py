"""O1 — the cluster telemetry plane, end to end.

PR 9's tentpole claims, pinned as numbers:

* **federation is exact** — a federated scrape of an 8-server cluster
  (every server serving ``telemetry.scrape`` over its secure channel,
  one collector pulling and merging deltas) converges to the *same*
  totals as the testbed's omniscient registry: every integer counter
  key matches exactly (conservation under merge) and histogram mass is
  preserved bucket-for-bucket;
* **profiling attributes the tour** — the deterministic sampling
  profiler, ticking on kernel virtual time, attributes ≥ 90% of its
  samples to open spans across a 5-hop tour, and
  ``FlightRecorder.critical_path`` decomposes the tour's wall-clock
  latency into segments (crypto / network / queue / supervision /
  compute) that sum *exactly* to the total;
* **off means off** — with the whole plane constructed but not started
  (no tracer installed, no collector ticking, no profiler, no SLO
  watchdog), the S1-style warm enforcement path pays ≤ 2% overhead.

``python benchmarks/bench_o1_telemetry.py --quick`` runs the reduced CI
gate: the same exactness checks on a 4-server world, the unclosed-span
check, a bounded scrape p99, and the 2% all-off tripwire.  It also
drops ``results/O1_scrape.json`` (the merged cluster snapshot) and
``results/O1_flame.txt`` (collapsed flame stacks) as CI artifacts.
"""

from __future__ import annotations

import sys

try:
    from repro.server.testbed import Testbed
except ImportError:  # CLI invocation without PYTHONPATH=src
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    from repro.server.testbed import Testbed

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.obs import runtime as _obs
from repro.sandbox.threadgroup import enter_group
from repro.sim.threads import SimThread

from _common import RESULTS_DIR, BenchWorld, time_op, write_table

SEED = 7500
N_SERVERS = 8
N_AGENTS = 5
QUICK_N_SERVERS = 4
QUICK_N_AGENTS = 2

#: tripwires (CI regression gates, not targets)
MIN_ATTRIBUTION_RATIO = 0.90
MAX_ALL_OFF_OVERHEAD_PCT = 2.0
MAX_SCRAPE_P99_VIRTUAL_NS = 1e9  # one virtual second per pull, generously

#: bare/off block pairs behind the all-off overhead (odd: a true median).
#: On a noisy shared host single pairs swing by tens of percent, and the
#: median of 9 pairs crossed the 2% tripwire in 4 of 12 runs; of 21, in
#: none of 4.
OVERHEAD_PAIRS = 21


@register_trusted_agent_class
class O1Tourist(Agent):
    """Hop the given tour, touching transfer/crypto machinery per hop."""

    def run(self):
        while self.tour:
            self.go(self.tour.pop(0), "run")
        self.complete("done")


def _launch_tours(bed: Testbed, n_agents: int) -> list:
    """Launch ``n_agents`` ring tours with rotated starting offsets."""
    names = [s.name for s in bed.servers]
    images = []
    for i in range(n_agents):
        agent = O1Tourist()
        rotated = names[i % len(names):] + names[:i % len(names)]
        agent.tour = [n for n in rotated if n != bed.home.name] + [bed.home.name]
        images.append(bed.launch(agent, Rights.none()))
    bed.run()
    return images


# ---------------------------------------------------------------------------
# federation exactness
# ---------------------------------------------------------------------------


def federation_report(n_servers: int = N_SERVERS,
                      n_agents: int = N_AGENTS, seed: int = SEED) -> dict:
    """Drive tours, scrape the cluster, compare against omniscience."""
    bed = Testbed(n_servers, seed=seed)
    _launch_tours(bed, n_agents)

    out: dict = {}

    def scrape():
        out["federated"] = bed.cluster_scrape()

    SimThread(bed.kernel, scrape, name="o1-scraper").start()
    bed.run()

    federated = out["federated"]
    omniscient = bed.scrape()
    # The collector's own bookkeeping (scrape latency, round counters)
    # has no omniscient twin; everything else must match exactly.
    fed_counters = {
        k: v for k, v in federated.items()
        if isinstance(v, int) and not k.startswith("telemetry.")
    }
    omni_counters = {k: v for k, v in omniscient.items() if isinstance(v, int)}
    mismatched = sorted(
        k for k in set(fed_counters) | set(omni_counters)
        if fed_counters.get(k) != omni_counters.get(k)
    )

    def hist_mass(scrape_dict):
        return sum(
            v["count"] for k, v in scrape_dict.items()
            if isinstance(v, dict) and "count" in v
            and not k.startswith("telemetry.")
        )

    latency = bed.collector.cluster.histogram("telemetry.scrape_latency_ns")
    return {
        "servers": n_servers,
        "targets": len(bed.telemetry_targets()),
        "counter_keys": len(omni_counters),
        "counters_exact": not mismatched,
        "mismatched": mismatched,
        "federated_total": sum(fed_counters.values()),
        "omniscient_total": sum(omni_counters.values()),
        "hist_mass_federated": hist_mass(federated),
        "hist_mass_omniscient": hist_mass(omniscient),
        "scrape_p99_ns": latency.quantile(0.99) if latency.count else 0.0,
        "cluster_snapshot": bed.collector.cluster_snapshot(),
    }


# ---------------------------------------------------------------------------
# profiling + critical path
# ---------------------------------------------------------------------------


def profiler_report(seed: int = SEED + 1) -> dict:
    """A 5-hop tour under the sampling profiler and flight recorder."""
    bed = Testbed(6, seed=seed)
    recorder = bed.start_tracing()
    profiler = bed.start_profiler(period=0.001)
    agent = O1Tourist()
    agent.tour = [s.name for s in bed.servers][1:]  # 5 hops
    image = bed.launch(agent, Rights.none())
    bed.run()
    bed.stop_profiler()
    bed.stop_tracing()
    cp = recorder.critical_path(image.name)
    residual = abs(sum(cp["segments"].values()) - cp["total"])
    return {
        "samples": profiler.total_samples,
        "attributed": profiler.attributed_samples,
        "ratio": profiler.attribution_ratio,
        "critical_path": cp,
        "cp_residual": residual,
        "unclosed_spans": len(recorder.open_spans()),
        "profiler": profiler,
    }


# ---------------------------------------------------------------------------
# the all-off overhead gate
# ---------------------------------------------------------------------------


def _warm_proxy():
    """An S1-style warm enforcement path: proxy.size on a live binding."""
    world = BenchWorld(seed=SEED)
    buf = Buffer(
        URN.parse("urn:resource:bench.org/o1"),
        URN.parse("urn:principal:bench.org/owner"),
        SecurityPolicy.allow_all(confine=False),
    )
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, world.context(domain))
    return domain, proxy


def _idle_plane() -> Testbed:
    """The whole plane, started nowhere: a telemetry'd world, its SLO
    watchdog, and a profiler, all idle."""
    plane = Testbed(2, seed=SEED + 2)
    plane.slo_monitor()
    plane.start_profiler()
    plane.stop_profiler()
    plane.stop_tracing()
    return plane


def overhead_report(target_seconds: float = 0.05) -> dict:
    """ns/call with the plane absent vs constructed-but-off.

    Each pair times one bare block and one block with an idle plane
    built just for it, in alternating order, and the overhead is the
    median of the per-pair ratios: a shared host that drifts between
    blocks moves both halves of a pair, where min-of-N on each side let
    one side catch a fast spell the other missed.  A plane is built
    before the bare block too, and dropped before it is timed, so both
    halves follow the same burst of key generation.  The cyclic GC is
    parked during each timed batch — a bigger heap makes generational
    collections dearer, which is a property of the bench process, not of
    the enforcement path under test.  The off-state plane never touches
    the call path, so the ratio is the honest price of merely *having*
    the telemetry objects around.
    """
    import gc
    import statistics

    _obs.uninstall()  # deterministic baseline: no hooks installed
    domain, proxy = _warm_proxy()
    call = proxy.size

    def measure():
        gc.collect()
        gc.disable()
        try:
            with enter_group(domain.thread_group):
                return time_op(call, target_seconds=target_seconds)
        finally:
            gc.enable()

    def measure_bare():
        _idle_plane()  # built and dropped before the block is timed
        return measure()

    def measure_off():
        plane = _idle_plane()  # noqa: F841 - alive while the block is timed
        return measure()

    measure()  # warm every lazy path before the recorded trials
    bare: list[float] = []
    off: list[float] = []
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            off.append(measure_off())
            bare.append(measure_bare())
        else:
            bare.append(measure_bare())
            off.append(measure_off())
    ratios = sorted(o / b for o, b in zip(off, bare))
    return {
        "bare_ns": statistics.median(bare),
        "off_ns": statistics.median(off),
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "pair_range_pct": ((ratios[0] - 1.0) * 100.0, (ratios[-1] - 1.0) * 100.0),
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_federated_scrape_is_exact():
    report = federation_report()
    assert report["counters_exact"], report["mismatched"]
    assert report["federated_total"] == report["omniscient_total"]
    assert report["hist_mass_federated"] == report["hist_mass_omniscient"]
    assert report["scrape_p99_ns"] <= MAX_SCRAPE_P99_VIRTUAL_NS


def test_profiler_attribution_and_critical_path():
    report = profiler_report()
    assert report["ratio"] >= MIN_ATTRIBUTION_RATIO
    assert report["cp_residual"] == pytest.approx(0.0, abs=1e-9)
    assert report["critical_path"]["total"] > 0
    assert report["unclosed_spans"] == 0


def test_all_off_overhead_within_budget():
    report = overhead_report()
    assert report["overhead_pct"] <= MAX_ALL_OFF_OVERHEAD_PCT, report


def build_rows(fed: dict, prof: dict, over: dict) -> tuple[list, str]:
    cp = prof["critical_path"]
    segments = ", ".join(
        f"{k} {v / cp['total']:>4.0%}" for k, v in
        sorted(cp["segments"].items(), key=lambda kv: -kv[1])
    )
    rows = [
        ["federated counter keys", fed["counter_keys"], "keys",
         f"{fed['servers']} servers + {fed['targets'] - fed['servers']}"
         f" ns hosts; exact={fed['counters_exact']}"],
        ["counter conservation", fed["federated_total"], "sum",
         f"omniscient {fed['omniscient_total']}"],
        ["histogram mass preserved", fed["hist_mass_federated"], "observations",
         f"omniscient {fed['hist_mass_omniscient']}"],
        ["scrape p99", fed["scrape_p99_ns"], "virtual ns",
         f"tripwire <= {MAX_SCRAPE_P99_VIRTUAL_NS:.0e}"],
        ["profiler attribution", round(prof["ratio"], 4), "ratio",
         f"{prof['attributed']}/{prof['samples']} samples, 5-hop tour"],
        ["critical-path residual", prof["cp_residual"], "s",
         f"total {cp['total']:.4f}s = {segments}"],
        ["unclosed spans", prof["unclosed_spans"], "spans", "must be 0"],
        ["all-off overhead", round(over["overhead_pct"], 3), "%",
         f"warm call {over['bare_ns']:.0f} -> {over['off_ns']:.0f} ns;"
         f" median of {OVERHEAD_PAIRS} paired ratios"
         f" ({over['pair_range_pct'][0]:+.1f}..{over['pair_range_pct'][1]:+.1f}%);"
         f" tripwire <= {MAX_ALL_OFF_OVERHEAD_PCT:.0f}%"],
    ]
    notes = (
        "Federation pulls cumulative snapshots over the secure channel and"
        " merges deltas (restart-safe); the collector scrapes its own host"
        " last so one settled-world round is exact.  The profiler ticks on"
        " kernel virtual time, so sampling is deterministic per seed."
    )
    return rows, notes


def write_o1(title: str, rows: list, notes: str) -> None:
    """Write the O1 table, headlined by the profiler's attribution ratio."""
    ratio = next(row[1] for row in rows if row[0] == "profiler attribution")
    write_table(
        "O1", title, ["check", "value", "unit", "detail"], rows,
        seed=SEED, notes=notes,
        headline=("profiler attribution", ratio, "ratio"),
    )


def test_table_o1(benchmark):
    def build():
        return build_rows(
            federation_report(), profiler_report(), overhead_report()
        )

    rows, notes = benchmark.pedantic(build, rounds=1, iterations=1)
    write_o1(
        "cluster telemetry plane: federation exactness, profiling, overhead",
        rows, notes,
    )


# ---------------------------------------------------------------------------
# CI smoke mode
# ---------------------------------------------------------------------------


def run_quick() -> int:
    failures: list[str] = []
    fed = federation_report(QUICK_N_SERVERS, QUICK_N_AGENTS)
    prof = profiler_report()
    over = overhead_report(target_seconds=0.02)
    rows, notes = build_rows(fed, prof, over)
    write_o1("cluster telemetry plane (CI quick gate)", rows, notes)

    if not fed["counters_exact"]:
        failures.append(f"federated counters diverge: {fed['mismatched']}")
    if fed["hist_mass_federated"] != fed["hist_mass_omniscient"]:
        failures.append(
            f"histogram mass {fed['hist_mass_federated']}"
            f" != omniscient {fed['hist_mass_omniscient']}"
        )
    if fed["scrape_p99_ns"] > MAX_SCRAPE_P99_VIRTUAL_NS:
        failures.append(
            f"scrape p99 {fed['scrape_p99_ns']:.3g} virtual ns"
            f" > {MAX_SCRAPE_P99_VIRTUAL_NS:.0e}"
        )
    if prof["ratio"] < MIN_ATTRIBUTION_RATIO:
        failures.append(
            f"profiler attribution {prof['ratio']:.3f}"
            f" < {MIN_ATTRIBUTION_RATIO}"
        )
    if prof["cp_residual"] > 1e-9:
        failures.append(
            f"critical path residual {prof['cp_residual']:.3g}s != 0"
        )
    if prof["unclosed_spans"]:
        failures.append(f"{prof['unclosed_spans']} span(s) left unclosed")
    if over["overhead_pct"] > MAX_ALL_OFF_OVERHEAD_PCT:
        failures.append(
            f"all-off overhead {over['overhead_pct']:.2f}%"
            f" > {MAX_ALL_OFF_OVERHEAD_PCT:.0f}%"
        )

    # CI artifacts: the merged cluster view and the collapsed flame stacks.
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "O1_scrape.json").write_text(
        fed["cluster_snapshot"].to_json() + "\n"
    )
    prof["profiler"].render_collapsed(RESULTS_DIR / "O1_flame.txt")

    if failures:
        print("\nO1 smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nO1 smoke OK")
    return 0


def main(argv: list[str]) -> int:
    if "--quick" in argv:
        return run_quick()
    rows, notes = build_rows(
        federation_report(), profiler_report(), overhead_report()
    )
    write_o1(
        "cluster telemetry plane: federation exactness, profiling, overhead",
        rows, notes,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
