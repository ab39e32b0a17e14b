"""FlightRecorder.critical_path: latency decomposition by span category."""

from __future__ import annotations

import pytest

from repro.obs.recorder import SEGMENT_CATEGORIES, FlightRecorder
from repro.obs.trace import SpanContext, Tracer
from repro.util.clock import VirtualClock


def _world():
    clock = VirtualClock()
    tracer = Tracer(clock=clock, service="test")
    return clock, tracer, FlightRecorder(tracer)


def _span(tracer, clock, name, start, end, parent=None):
    clock.set(start)
    span = tracer.start_span(name, parent=parent)
    tracer.end_span(span, at=end)
    return span


def test_empty_trace_decomposes_to_zero():
    _, _, recorder = _world()
    cp = recorder.critical_path([])
    assert cp["total"] == 0.0
    assert cp["segments"] == {}


def test_segments_partition_the_trace_exactly():
    clock, tracer, recorder = _world()
    root = _span(tracer, clock, "agent.tour", 0.0, 10.0)
    _span(tracer, clock, "secure.handshake", 1.0, 3.0, parent=root)
    _span(tracer, clock, "rpc.call", 3.0, 7.0, parent=root)
    cp = recorder.critical_path(root.trace_id)
    assert cp["total"] == pytest.approx(10.0)
    assert sum(cp["segments"].values()) == pytest.approx(10.0)
    assert cp["segments"]["crypto"] == pytest.approx(2.0)
    assert cp["segments"]["network"] == pytest.approx(4.0)
    assert cp["segments"]["compute"] == pytest.approx(4.0)  # uncovered root


def test_innermost_span_wins_attribution():
    clock, tracer, recorder = _world()
    outer = _span(tracer, clock, "rpc.call", 0.0, 8.0)
    _span(tracer, clock, "secure.encrypt", 2.0, 6.0, parent=outer)
    cp = recorder.critical_path(outer.trace_id)
    assert cp["segments"]["crypto"] == pytest.approx(4.0)
    assert cp["segments"]["network"] == pytest.approx(4.0)


def test_gaps_between_spans_are_reported_as_gap():
    clock, tracer, recorder = _world()
    a = _span(tracer, clock, "rpc.call", 0.0, 2.0)
    _span(tracer, clock, "rpc.call", 5.0, 6.0, parent=a.context)
    cp = recorder.critical_path(a.trace_id)
    assert cp["segments"]["gap"] == pytest.approx(3.0)
    assert cp["segments"]["network"] == pytest.approx(3.0)
    assert cp["total"] == pytest.approx(6.0)


def test_by_span_name_breakdown_sums_to_covered_time():
    clock, tracer, recorder = _world()
    root = _span(tracer, clock, "transfer.send", 0.0, 5.0)
    _span(tracer, clock, "secure.call", 1.0, 2.0, parent=root)
    cp = recorder.critical_path(root.trace_id)
    assert cp["by_span_name"]["transfer.send"] == pytest.approx(4.0)
    assert cp["by_span_name"]["secure.call"] == pytest.approx(1.0)


def test_nested_spans_attribute_to_the_inner_stack():
    clock, tracer, recorder = _world()
    outer = _span(tracer, clock, "outer", 0.0, 4.0)
    _span(tracer, clock, "inner", 1.0, 3.0, parent=outer)
    cp = recorder.critical_path(outer.trace_id)
    assert cp["stacks"]["outer;inner"] == pytest.approx(2.0)
    assert cp["stacks"]["outer"] == pytest.approx(2.0)


def test_gap_interval_belongs_to_no_stack():
    clock, tracer, recorder = _world()
    a = _span(tracer, clock, "agent.resident", 0.0, 1.0)
    _span(tracer, clock, "rpc.call", 3.0, 4.0, parent=a.context)
    cp = recorder.critical_path(a.trace_id)
    assert cp["segments"]["gap"] == pytest.approx(2.0)
    assert cp["stacks"] == {
        "agent.resident": pytest.approx(1.0),
        "agent.resident;rpc.call": pytest.approx(1.0),
    }


def test_stacks_plus_gap_sum_to_total():
    clock, tracer, recorder = _world()
    root = _span(tracer, clock, "agent.launch", 0.0, 3.0)
    hop = _span(tracer, clock, "transfer.depart", 1.0, 2.5, parent=root)
    _span(tracer, clock, "secure.call", 1.5, 2.0, parent=hop)
    _span(tracer, clock, "report.send", 5.0, 7.25, parent=root.context)
    cp = recorder.critical_path(root.trace_id)
    gap = cp["segments"]["gap"]
    assert gap == pytest.approx(2.0)
    assert sum(cp["stacks"].values()) + gap == pytest.approx(cp["total"])
    assert cp["total"] == pytest.approx(7.25)


def test_child_admitted_on_another_host_carries_its_remote_parent():
    clock, tracer, recorder = _world()
    depart = _span(tracer, clock, "transfer.depart", 0.0, 4.0)
    # The wire-carried context, as an arriving image delivers it.
    ctx = SpanContext.from_attributes(depart.context.to_attributes())
    clock.set(1.0)
    admit = tracer.start_span("transfer.admit").adopt_context(ctx)
    tracer.end_span(admit, at=3.0)
    cp = recorder.critical_path(depart.trace_id)
    assert cp["stacks"]["transfer.depart;transfer.admit"] == pytest.approx(2.0)


def test_span_with_missing_parent_starts_its_own_stack():
    clock, tracer, recorder = _world()
    root = _span(tracer, clock, "agent.launch", 0.0, 4.0)
    hop = _span(tracer, clock, "transfer.depart", 1.0, 3.0, parent=root)
    leaf = _span(tracer, clock, "secure.call", 1.5, 2.5, parent=hop)
    cp = recorder.critical_path([root, leaf])
    assert cp["stacks"] == {
        "agent.launch": pytest.approx(3.0),
        "secure.call": pytest.approx(1.0),
    }


def test_forged_parent_cycle_ends_the_stack():
    clock, tracer, recorder = _world()
    clock.set(0.0)
    admit = tracer.start_span("transfer.admit")
    # An arriving image names the admit span itself as its parent.
    admit.adopt_context(admit.context)
    tracer.end_span(admit, at=1.0)
    cp = recorder.critical_path([admit])
    assert cp["stacks"] == {"transfer.admit": pytest.approx(1.0)}


@pytest.mark.timeout(5)
def test_is_ancestor_stops_at_a_forged_parent_cycle():
    clock, tracer, recorder = _world()
    root = _span(tracer, clock, "agent.launch", 0.0, 4.0)
    clock.set(1.0)
    admit = tracer.start_span("transfer.admit", parent=root)
    assert recorder.is_ancestor(root, admit)
    # An arriving image names the admit span itself as its parent, in
    # the root's trace: the parent chain is now a one-span cycle.
    admit.adopt_context(admit.context)
    tracer.end_span(admit, at=2.0)
    assert admit.trace_id == root.trace_id
    assert recorder.is_ancestor(root, admit) is False
    assert recorder.is_ancestor(admit, admit) is False


def test_category_prefix_table():
    from repro.obs.recorder import categorize_span

    assert categorize_span("secure.handshake") == "crypto"
    assert categorize_span("rpc.call") == "network"
    assert categorize_span("transfer.send") == "queue"
    assert categorize_span("protocol.bind") == "supervision"
    assert categorize_span("agent.resident") == "compute"
    assert categorize_span("exotic.thing") == "other"
    assert dict(SEGMENT_CATEGORIES)["sec"] == "crypto"


def test_five_hop_tour_decomposition_sums_to_tour_latency():
    from repro.agents.agent import Agent, register_trusted_agent_class
    from repro.credentials.rights import Rights
    from repro.server.testbed import Testbed

    @register_trusted_agent_class
    class _FiveHopper(Agent):
        def run(self):
            while self.tour:
                self.go(self.tour.pop(0), "run")
            self.complete("done")

    bed = Testbed(6, seed=44)
    recorder = bed.start_tracing()
    agent = _FiveHopper()
    agent.tour = [s.name for s in bed.servers][1:]
    image = bed.launch(agent, Rights.none())
    bed.run()
    bed.stop_tracing()
    cp = recorder.critical_path(image.name)
    assert cp["total"] > 0
    assert sum(cp["segments"].values()) == pytest.approx(cp["total"])
    assert "gap" not in cp["segments"]  # a tour is continuously spanned
    assert cp["segments"].get("network", 0) > 0
    assert cp["segments"].get("crypto", 0) > 0
