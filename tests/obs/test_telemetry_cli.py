"""The ``python -m repro telemetry`` file tools (no testbed required)."""

from __future__ import annotations

import io
import json

from repro.__main__ import (
    chrome_from_jsonl,
    main,
    telemetry_diff,
    telemetry_print,
)
from repro.obs.aggregate import TelemetryUnit
from repro.obs.trace import Tracer
from repro.util.clock import VirtualClock


def _snapshot_file(tmp_path, name, **counters):
    unit = TelemetryUnit("urn:server:test/s0", VirtualClock(), server="s0")
    for key, value in counters.items():
        unit.inc(key, value)
    path = tmp_path / name
    path.write_text(unit.snapshot().to_json())
    return path


def test_print_renders_a_metric_snapshot(tmp_path):
    path = _snapshot_file(tmp_path, "snap.json", requests=7)
    out = io.StringIO()
    assert telemetry_print(str(path), out=out) == 0
    text = out.getvalue()
    assert text.startswith("# origin=urn:server:test/s0 ")
    assert "requests{server=s0} 7" in text


def test_print_renders_a_plain_scrape_dict(tmp_path):
    path = tmp_path / "scrape.json"
    path.write_text(json.dumps({"requests{server=s0}": 3, "load": 0.5}))
    out = io.StringIO()
    assert telemetry_print(str(path), out=out) == 0
    assert "requests{server=s0} 3" in out.getvalue()


def test_diff_reports_counter_movement(tmp_path):
    old = _snapshot_file(tmp_path, "old.json", requests=2, still=1)
    new = _snapshot_file(tmp_path, "new.json", requests=9, still=1)
    out = io.StringIO()
    assert telemetry_diff(str(old), str(new), out=out) == 0
    delta = json.loads(out.getvalue())
    assert delta == {"requests{server=s0}": 7}


def test_diff_refuses_plain_dicts(tmp_path):
    snap = _snapshot_file(tmp_path, "snap.json", requests=1)
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"requests": 1}))
    assert telemetry_diff(str(snap), str(plain), out=io.StringIO()) == 2


def test_chrome_from_jsonl_mirrors_tracer_export(tmp_path):
    clock = VirtualClock()
    tracer = Tracer(clock=clock, service="test")
    span = tracer.start_span("rpc.call", server="s0")
    tracer.add_event("sent", bytes=12)
    clock.set(0.25)
    tracer.end_span(span)
    jsonl = tracer.export_jsonl()
    native = tracer.export_chrome()
    rebuilt = chrome_from_jsonl(jsonl.splitlines())
    assert rebuilt["displayTimeUnit"] == "ms"
    x = [e for e in rebuilt["traceEvents"] if e["ph"] == "X"]
    assert len(x) == 1
    assert x[0]["name"] == "rpc.call"
    assert x[0]["pid"] == "s0"
    assert x[0]["dur"] == 0.25 * 1e6
    native_x = [e for e in native["traceEvents"] if e["ph"] == "X"]
    assert x[0]["ts"] == native_x[0]["ts"]
    assert x[0]["dur"] == native_x[0]["dur"]
    instants = [e for e in rebuilt["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["name"] == "rpc.call/sent"
    assert instants[0]["args"] == {"span_id": span.span_id, "bytes": 12}


def test_telemetry_chrome_equals_export_chrome_without_annotations(tmp_path):
    clock = VirtualClock()
    tracer = Tracer(clock=clock)  # default service: the CLI's pid fallback
    outer = tracer.start_span("agent.tour", server="s0")
    inner = tracer.start_span("secure.call", peer="s1")
    clock.set(0.1)
    tracer.add_event("retry", attempt=2)
    tracer.annotate("loss_burst", "s0->s1", injected=True)
    clock.set(0.2)
    tracer.end_span(inner)
    clock.set(0.3)
    tracer.end_span(outer)
    trace = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(trace))
    assert main(["telemetry", "chrome", str(trace)]) == 0
    cli = json.loads((tmp_path / "trace.chrome.json").read_text())

    native = tracer.export_chrome()
    annotations = [e for e in native["traceEvents"] if e["cat"] == "annotation"]
    assert [e["name"] for e in annotations] == ["loss_burst"]
    native["traceEvents"] = [
        e for e in native["traceEvents"] if e["cat"] != "annotation"
    ]
    assert cli == native
    assert {e["pid"] for e in cli["traceEvents"]} == {"s0", "repro"}
    assert [e["args"] for e in cli["traceEvents"] if e["ph"] == "i"] == [
        {"span_id": inner.span_id, "attempt": 2}
    ]


def test_chrome_handles_open_spans_and_blank_lines():
    lines = [
        "",
        json.dumps({
            "trace_id": "trace-0001", "span_id": "span-000001",
            "parent_id": None, "name": "agent.tour",
            "start": 1.0, "end": None, "status": "open",
            "attributes": {},
        }),
    ]
    doc = chrome_from_jsonl(lines)
    assert doc["traceEvents"][0]["dur"] == 0.0


def test_main_chrome_writes_default_output_path(tmp_path, capsys):
    clock = VirtualClock()
    tracer = Tracer(clock=clock, service="test")
    span = tracer.start_span("secure.call")
    clock.set(0.1)
    tracer.end_span(span)
    trace = tmp_path / "tour.jsonl"
    tracer.export_jsonl(str(trace))
    assert main(["telemetry", "chrome", str(trace)]) == 0
    out_path = tmp_path / "tour.chrome.json"
    assert out_path.exists()
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"][0]["name"] == "secure.call"
    assert str(out_path) in capsys.readouterr().out


def test_main_dispatches_print(tmp_path, capsys):
    path = _snapshot_file(tmp_path, "snap.json", ops=4)
    assert main(["telemetry", "print", str(path)]) == 0
    assert "ops{server=s0} 4" in capsys.readouterr().out
