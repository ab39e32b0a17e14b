"""Tracer unit tests: span lifecycle, context propagation, exports."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import runtime
from repro.obs.trace import Span, SpanContext, Tracer
from repro.util.clock import VirtualClock


def make_tracer() -> tuple[Tracer, VirtualClock]:
    clock = VirtualClock()
    return Tracer(clock=clock), clock


def test_span_nesting_and_parentage():
    tracer, clock = make_tracer()
    with tracer.span("outer", server="s0") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    assert tracer.current_span() is None
    assert not tracer.open_spans()
    assert outer.status == "ok" and inner.status == "ok"
    assert outer.duration == pytest.approx(1.0)


def test_sibling_roots_get_distinct_traces():
    tracer, _ = make_tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    a, b = tracer.finished
    assert a.trace_id != b.trace_id
    assert a.parent_id is None and b.parent_id is None


def test_explicit_parent_context_joins_the_trace():
    tracer, _ = make_tracer()
    with tracer.span("origin") as origin:
        carried = origin.context.to_attributes()
    ctx = SpanContext.from_attributes(carried)
    assert ctx == origin.context
    with tracer.span("continuation", parent=ctx) as cont:
        assert cont.trace_id == origin.trace_id
        assert cont.parent_id == origin.span_id


@pytest.mark.parametrize(
    "raw",
    [
        None,
        "not a dict",
        {},
        {"trace_id": "t"},
        {"trace_id": 7, "span_id": "s"},
        {"trace_id": "t", "span_id": ""},
        {"trace_id": "x" * 65, "span_id": "s"},
    ],
)
def test_malformed_wire_context_is_rejected_not_raised(raw):
    assert SpanContext.from_attributes(raw) is None


def test_exception_closes_span_with_error_status():
    tracer, _ = make_tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    (span,) = tracer.finished
    assert span.status == "error"
    assert "ValueError: boom" in span.status_detail
    assert not tracer.open_spans()


def test_explicit_status_survives_exception_exit():
    tracer, _ = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("denied") as span:
            span.set_status("error", "policy said no")
            raise RuntimeError("following the denial")
    (span,) = tracer.finished
    assert span.status_detail == "policy said no"


def test_end_span_is_idempotent():
    tracer, clock = make_tracer()
    span = tracer.start_span("once")
    tracer.end_span(span)
    first_end = span.end
    clock.advance(5.0)
    tracer.end_span(span)
    assert span.end == first_end
    assert len(tracer.finished) == 1


def test_events_attach_to_the_current_span():
    tracer, clock = make_tracer()
    tracer.add_event("orphan")  # no current span: dropped, no error
    with tracer.span("op") as span:
        clock.advance(0.5)
        tracer.add_event("retry", attempt=1)
    assert span.event_names() == ["retry"]
    (t, _, attrs) = span.events[0]
    assert t == pytest.approx(0.5) and attrs == {"attempt": 1}


def test_per_thread_stacks_do_not_interleave():
    tracer, _ = make_tracer()
    seen: dict[str, str] = {}
    with tracer.span("main-op") as main_span:
        def other():
            with tracer.span("other-op") as other_span:
                seen["trace"] = other_span.trace_id
                seen["parent"] = str(other_span.parent_id)
        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert tracer.current_span() is main_span
    # The other thread had no current span, so it rooted a new trace.
    assert seen["trace"] != main_span.trace_id
    assert seen["parent"] == "None"


def test_adopt_context_reroots_before_children():
    tracer, _ = make_tracer()
    with tracer.span("origin") as origin:
        ctx = origin.context
    with tracer.span("arrival") as arrival:
        arrival.adopt_context(ctx)
        with tracer.span("child") as child:
            assert child.trace_id == origin.trace_id
    assert arrival.trace_id == origin.trace_id
    assert arrival.parent_id == origin.span_id


def test_ids_are_deterministic():
    t1, _ = make_tracer()
    t2, _ = make_tracer()
    for t in (t1, t2):
        with t.span("a"):
            with t.span("b"):
                pass
    assert [s.span_id for s in t1.finished] == [s.span_id for s in t2.finished]
    assert [s.trace_id for s in t1.finished] == [s.trace_id for s in t2.finished]


def test_export_jsonl_round_trips(tmp_path):
    tracer, clock = make_tracer()
    with tracer.span("op", server="s0") as span:
        clock.advance(2.0)
        span.set_attribute("answer", 42)
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["name"] == "op"
    assert doc["attributes"] == {"server": "s0", "answer": 42}
    assert doc["end"] == pytest.approx(2.0)


def test_export_chrome_shape(tmp_path):
    tracer, clock = make_tracer()
    with tracer.span("rpc.call", server="s0"):
        tracer.add_event("retry", attempt=1)
        clock.advance(0.25)
    tracer.annotate("fault.link_down", "a<->b", injected=True)
    path = tmp_path / "trace.json"
    doc = tracer.export_chrome(str(path))
    assert json.loads(path.read_text()) == doc
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) == 1 and complete[0]["pid"] == "s0"
    assert complete[0]["dur"] == pytest.approx(0.25 * 1e6)
    names = {e["name"] for e in instants}
    assert "rpc.call/retry" in names and "fault.link_down" in names
    fault = next(e for e in instants if e["name"] == "fault.link_down")
    assert fault["pid"] == "faults"


def test_runtime_install_flags_and_partial_replace():
    assert not runtime.TRACING
    tracer, _ = make_tracer()
    runtime.install(tracer=tracer)
    assert runtime.TRACING
    assert runtime.TRACER is tracer
    runtime.uninstall()
    assert not runtime.TRACING and runtime.TRACER is None
