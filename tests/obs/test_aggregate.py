"""Federated metrics: snapshots, delta absorption, merge edge cases."""

from __future__ import annotations

import math

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.obs.aggregate import (
    MetricSnapshot,
    TelemetryCollector,
    TelemetryUnit,
    snapshot_delta,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.server.testbed import Testbed
from repro.sim.monitor import Counter as MonitorCounter
from repro.sim.threads import SimThread
from repro.util.clock import VirtualClock
from repro.util.serialization import decode, encode


def _unit(origin="urn:server:test/u", **labels) -> TelemetryUnit:
    return TelemetryUnit(origin, VirtualClock(), **labels)


def _collector() -> TelemetryCollector:
    class _Via:
        name = "urn:server:test/via"
        kernel = VirtualClock()  # .now() is all offline absorption needs
    return TelemetryCollector(_Via())


# -- snapshots ---------------------------------------------------------------


def test_snapshot_wire_roundtrip_through_encode():
    unit = _unit(server="s0")
    unit.inc("requests", 3)
    unit.gauge("residents").set(2.0)
    unit.observe("latency", 300.0)
    snap = unit.snapshot()
    back = MetricSnapshot.from_wire(decode(encode(snap.to_wire())))
    assert back.origin == snap.origin
    assert back.counters == snap.counters
    assert back.gauges == snap.gauges
    assert back.histograms == snap.histograms


def test_snapshot_json_clamps_empty_histogram_extrema():
    unit = _unit()
    unit.histogram("empty")  # zero observations: min=inf, max=-inf
    text = unit.snapshot().to_json()
    assert "Infinity" not in text
    back = MetricSnapshot.from_json(text)
    state = next(iter(back.histograms.values()))
    assert state["min"] == math.inf and state["max"] == -math.inf


def test_unit_stamps_host_labels_on_every_key():
    unit = _unit(server="s7", ring="2")
    unit.inc("ops")
    stats = MonitorCounter()
    stats.add("hits", 4)
    unit.register_source("cache", stats)
    snap = unit.snapshot()
    assert snap.counters == {
        "ops{ring=2,server=s7}": 1,
        "cache.hits{ring=2,server=s7}": 4,
    }


# -- absorption edge cases (the satellite checklist) -------------------------


def test_absorb_empty_registry_is_a_noop():
    collector = _collector()
    collector.absorb(_unit().snapshot())
    assert collector.scrape() == {}
    assert collector.cluster_snapshot().counters == {}


def test_absorb_disjoint_label_sets_sit_side_by_side():
    collector = _collector()
    a = _unit("a", server="a")
    b = _unit("b", shard="s1", node="b")
    a.inc("requests", 2)
    b.inc("requests", 5)
    collector.absorb(a.snapshot())
    collector.absorb(b.snapshot())
    scrape = collector.scrape()
    assert scrape["requests{server=a}"] == 2
    assert scrape["requests{node=b,shard=s1}"] == 5


def test_absorb_is_idempotent_for_repeated_snapshots():
    """Cumulative-on-the-wire: re-absorbing the same snapshot (a retried
    or duplicated scrape) must not double-count."""
    collector = _collector()
    unit = _unit(server="a")
    unit.inc("requests", 7)
    unit.observe("latency", 500.0)
    snap = unit.snapshot()
    collector.absorb(snap)
    collector.absorb(snap)
    assert collector.scrape()["requests{server=a}"] == 7
    assert collector.scrape()["latency{server=a}"]["count"] == 1


def test_counter_delta_wraparound_treats_lower_value_as_restart():
    collector = _collector()
    high = MetricSnapshot("a", 1.0, {"c": 10}, {}, {})
    low = MetricSnapshot("a", 2.0, {"c": 3}, {}, {})
    collector.absorb(high)
    collector.absorb(low)
    # 10 before the restart + the restarted process's own 3.
    assert collector.scrape()["c"] == 13


def test_histogram_wraparound_treats_shrunk_buckets_as_restart():
    collector = _collector()
    h1 = Histogram([100.0, 1000.0])
    for v in (50.0, 500.0, 5000.0):
        h1.observe(v)
    collector.absorb(MetricSnapshot("a", 1.0, {}, {}, {"lat": h1.state()}))
    h2 = Histogram([100.0, 1000.0])
    h2.observe(500.0)
    collector.absorb(MetricSnapshot("a", 2.0, {}, {}, {"lat": h2.state()}))
    merged = collector.cluster.histogram("lat", bounds=[100.0, 1000.0])
    assert merged.count == 4  # 3 pre-restart + 1 after
    assert merged.counts == [1, 2, 1]


def test_histogram_restart_keeps_pre_restart_total():
    """Counts and total share one restart decision: a restarted source
    whose total happens to exceed the last one still adds all of it."""
    collector = _collector()
    h1 = Histogram([100.0, 1000.0])
    h1.observe(300.0)
    collector.absorb(MetricSnapshot("a", 1.0, {}, {}, {"lat": h1.state()}))
    h2 = Histogram([100.0, 1000.0])  # restarted: bucket 1 fell to 0
    h2.observe(5000.0)
    collector.absorb(MetricSnapshot("a", 2.0, {}, {}, {"lat": h2.state()}))
    merged = collector.cluster.histogram("lat", bounds=[100.0, 1000.0])
    assert merged.count == 2
    assert merged.total == 5300.0


def test_bucket_boundary_values_merge_without_mass_shift():
    bounds = [256.0, 512.0]
    a, b = Histogram(bounds), Histogram(bounds)
    for h in (a, b):
        h.observe(256.0)  # exactly on a bound: bucket 0 (<= 256)
        h.observe(512.0)
        h.observe(513.0)  # overflow bucket
    collector = _collector()
    collector.absorb(MetricSnapshot("a", 1.0, {}, {}, {"h": a.state()}))
    collector.absorb(MetricSnapshot("b", 1.0, {}, {}, {"h": b.state()}))
    merged = collector.cluster.histogram("h", bounds=bounds)
    assert merged.counts == [2, 2, 2]
    assert merged.count == 6
    assert merged.min == 256.0 and merged.max == 513.0
    assert merged.total == pytest.approx(2 * (256.0 + 512.0 + 513.0))


def test_histogram_merge_rejects_mismatched_bounds():
    a = Histogram([1.0, 2.0])
    b = Histogram([1.0, 4.0])
    with pytest.raises(ValueError):
        a.merge(b)


def test_monitor_counter_total_and_parts_survive_aggregation():
    """A total bumped beside its parts federates like any counter."""
    stats = MonitorCounter()
    for part, n in (("failed_breaker", 2), ("failed_exhausted", 1)):
        stats.add("failed", n)
        stats.add(part, n)
    unit = _unit(server="a")
    unit.register_source("xfer", stats)
    collector = _collector()
    collector.absorb(unit.snapshot())
    scrape = collector.scrape()
    assert scrape["xfer.failed{server=a}"] == 3
    assert scrape["xfer.failed_breaker{server=a}"] == 2
    # The total keeps tracking its parts across later scrapes.
    stats.add("failed")
    stats.add("failed_breaker")
    collector.absorb(unit.snapshot())
    scrape = collector.scrape()
    assert scrape["xfer.failed{server=a}"] == 4
    assert scrape["xfer.failed{server=a}"] == (
        scrape["xfer.failed_breaker{server=a}"]
        + scrape["xfer.failed_exhausted{server=a}"]
    )


def test_gauges_are_newest_wins():
    collector = _collector()
    collector.absorb(MetricSnapshot("a", 1.0, {}, {"g": 5.0}, {}))
    collector.absorb(MetricSnapshot("a", 2.0, {}, {"g": 2.0}, {}))
    assert collector.scrape()["g"] == 2.0


# -- snapshot_delta ----------------------------------------------------------


def test_snapshot_delta_reports_only_movement():
    old = MetricSnapshot("a", 1.0, {"c": 5, "still": 2}, {"g": 1.0}, {})
    new = MetricSnapshot("a", 2.0, {"c": 8, "still": 2}, {"g": 3.0}, {})
    delta = snapshot_delta(old, new)
    assert delta == {"c": 3, "g": {"was": 1.0, "now": 3.0}}


def test_snapshot_delta_counter_restart():
    old = MetricSnapshot("a", 1.0, {"c": 9}, {}, {})
    new = MetricSnapshot("a", 2.0, {"c": 2}, {}, {})
    assert snapshot_delta(old, new) == {"c": 2}


def test_snapshot_delta_histogram_observations():
    h = Histogram([10.0])
    h.observe(1.0)
    old = MetricSnapshot("a", 1.0, {}, {}, {"h": h.state()})
    h.observe(2.0)
    h.observe(3.0)
    new = MetricSnapshot("a", 2.0, {}, {}, {"h": h.state()})
    assert snapshot_delta(old, new) == {"h": {"observations": 2}}


# -- whole-world federation --------------------------------------------------


@register_trusted_agent_class
class _RingTourist(Agent):
    def run(self):
        while self.tour:
            self.go(self.tour.pop(0), "run")
        self.complete("done")


def _drive_tour(bed: Testbed, hops=None):
    names = [s.name for s in bed.servers]
    agent = _RingTourist()
    agent.tour = list(hops if hops is not None else names[1:] + [names[0]])
    image = bed.launch(agent, Rights.none())
    bed.run()
    return image


def _federated_counters(bed: Testbed) -> dict:
    out = {}

    def scrape():
        out["scrape"] = bed.cluster_scrape()

    SimThread(bed.kernel, scrape, name="scraper").start()
    bed.run()
    return {
        k: v
        for k, v in out["scrape"].items()
        if isinstance(v, int) and not k.startswith("telemetry.")
    }


def test_federated_scrape_matches_omniscient_registry_exactly():
    bed = Testbed(4, seed=90)
    _drive_tour(bed)
    federated = _federated_counters(bed)
    omniscient = {
        k: v for k, v in bed.scrape().items() if isinstance(v, int)
    }
    assert federated == omniscient


def test_federation_stays_exact_across_crash_and_restart():
    bed = Testbed(3, seed=91)
    _drive_tour(bed)
    _federated_counters(bed)  # baseline round (sets delta baselines)
    bed.servers[1].crash()
    bed.servers[1].restart()
    bed.run()
    _drive_tour(bed, hops=[bed.servers[1].name, bed.servers[0].name])
    federated = _federated_counters(bed)
    omniscient = {
        k: v for k, v in bed.scrape().items() if isinstance(v, int)
    }
    assert federated == omniscient
    assert federated[
        f"server.crashes{{server={bed.servers[1].name}}}"
    ] == 1


def test_scheduled_collector_rounds_run_as_daemon_ticks():
    bed = Testbed(3, seed=92)
    collector = bed.start_collector(period=0.01)
    _drive_tour(bed)
    assert collector.stats["rounds"] > 0
    assert collector.stats["scrapes_ok"] > 0
    # Daemon ticks never keep the drained world alive.
    t_end = bed.kernel.now()
    bed.run()
    assert bed.kernel.now() == t_end
    bed.stop_collector()
