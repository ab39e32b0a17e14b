"""Hypothesis properties of federated absorption.

One source reports cumulative values across several process lifetimes.
Every restart is *observed*: the first value scraped after it is below
the last value scraped before it (for a histogram, the observation
count).  Under that one assumption the collector must

* total exactly what every lifetime reported last,
* ignore a snapshot absorbed a second time, and
* add, per pair of consecutive snapshots, what :func:`snapshot_delta`
  reports for that pair.

Histogram count and total are held to the same properties
(:func:`snapshot_delta` reports a histogram's observation count only).
"""

from __future__ import annotations

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.aggregate import MetricSnapshot, TelemetryCollector, snapshot_delta
from repro.obs.metrics import Histogram
from repro.util.clock import VirtualClock

BOUNDS = [10.0, 100.0, 1000.0]


def _collector() -> TelemetryCollector:
    class _Via:
        name = "urn:server:test/via"
        kernel = VirtualClock()  # .now() is all offline absorption needs
    return TelemetryCollector(_Via())


@st.composite
def counter_lifetimes(draw) -> list[list[int]]:
    """Scraped cumulative values of one counter, one list per lifetime."""
    lifetimes: list[list[int]] = []
    for _ in range(draw(st.integers(1, 4))):
        if not lifetimes:
            first = draw(st.integers(0, 50))
        elif lifetimes[-1][-1] == 0:
            break  # a restart from 0 cannot be observed
        else:
            first = draw(st.integers(0, lifetimes[-1][-1] - 1))
        steps = draw(st.lists(st.integers(0, 20), max_size=6))
        lifetimes.append(list(accumulate(steps, initial=first)))
    return lifetimes


@st.composite
def histogram_lifetimes(draw) -> list[list[dict]]:
    """Scraped states of one histogram, one list per lifetime."""
    values = st.integers(0, 5000).map(float)  # integral: totals stay exact
    lifetimes: list[list[dict]] = []
    for _ in range(draw(st.integers(1, 4))):
        if not lifetimes:
            first = draw(st.integers(0, 4))
        elif lifetimes[-1][-1]["count"] == 0:
            break
        else:
            first = draw(st.integers(0, lifetimes[-1][-1]["count"] - 1))
        hist = Histogram(BOUNDS)
        states = []
        for batch in [first] + draw(st.lists(st.integers(0, 3), max_size=5)):
            for value in draw(st.lists(values, min_size=batch, max_size=batch)):
                hist.observe(value)
            states.append(hist.state())
        lifetimes.append(states)
    return lifetimes


def _counter_snaps(lifetimes) -> list[MetricSnapshot]:
    values = [v for life in lifetimes for v in life]
    return [MetricSnapshot("a", float(t), {"c": v}, {}, {})
            for t, v in enumerate(values)]


def _hist_snaps(lifetimes) -> list[MetricSnapshot]:
    states = [s for life in lifetimes for s in life]
    return [MetricSnapshot("a", float(t), {}, {}, {"h": s})
            for t, s in enumerate(states)]


def _count(collector) -> int:
    return collector.cluster_snapshot().counters.get("c", 0)


def _hist(collector) -> tuple[int, float]:
    state = collector.cluster_snapshot().histograms.get("h")
    return (0, 0.0) if state is None else (state["count"], state["total"])


# -- counters ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(counter_lifetimes())
def test_counter_total_is_exact_when_every_restart_is_observed(lifetimes):
    collector = _collector()
    for snap in _counter_snaps(lifetimes):
        collector.absorb(snap)
    assert _count(collector) == sum(life[-1] for life in lifetimes)


@settings(max_examples=200, deadline=None)
@given(counter_lifetimes())
def test_counter_absorbing_a_snapshot_twice_changes_nothing(lifetimes):
    collector = _collector()
    for snap in _counter_snaps(lifetimes):
        collector.absorb(snap)
        once = _count(collector)
        collector.absorb(snap)
        assert _count(collector) == once


@settings(max_examples=200, deadline=None)
@given(counter_lifetimes())
def test_counter_snapshot_delta_matches_what_the_collector_adds(lifetimes):
    snaps = _counter_snaps(lifetimes)
    collector = _collector()
    collector.absorb(snaps[0])
    for old, new in zip(snaps, snaps[1:]):
        before = _count(collector)
        collector.absorb(new)
        assert _count(collector) - before == snapshot_delta(old, new).get("c", 0)


# -- histograms --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(histogram_lifetimes())
def test_histogram_count_and_total_are_exact(lifetimes):
    collector = _collector()
    for snap in _hist_snaps(lifetimes):
        collector.absorb(snap)
    assert _hist(collector) == (
        sum(life[-1]["count"] for life in lifetimes),
        sum(life[-1]["total"] for life in lifetimes),
    )


@settings(max_examples=200, deadline=None)
@given(histogram_lifetimes())
def test_histogram_absorbing_a_snapshot_twice_changes_nothing(lifetimes):
    collector = _collector()
    for snap in _hist_snaps(lifetimes):
        collector.absorb(snap)
        once = _hist(collector)
        collector.absorb(snap)
        assert _hist(collector) == once


@settings(max_examples=200, deadline=None)
@given(histogram_lifetimes())
def test_histogram_snapshot_delta_matches_what_the_collector_adds(lifetimes):
    snaps = _hist_snaps(lifetimes)
    collector = _collector()
    collector.absorb(snaps[0])
    for old, new in zip(snaps, snaps[1:]):
        before, _ = _hist(collector)
        collector.absorb(new)
        added = _hist(collector)[0] - before
        delta = snapshot_delta(old, new).get("h", {"observations": 0})
        assert added == delta["observations"]
