"""AuditLog ring buffer: bounded capacity, dropped tally, span stamping."""

from __future__ import annotations

import pytest

from repro.obs import runtime
from repro.obs.trace import Tracer
from repro.server.testbed import Testbed
from repro.util.audit import AuditLog
from repro.util.clock import VirtualClock


def make_log(capacity=None):
    return AuditLog(VirtualClock(), capacity=capacity)


def test_unbounded_by_default():
    log = make_log()
    for i in range(100):
        log.record("d", "op", f"t{i}", True)
    assert len(log) == 100
    assert log.dropped == 0
    assert log.capacity is None


def test_capacity_bounds_and_counts_drops():
    log = make_log(capacity=3)
    for i in range(10):
        log.record("d", "op", f"t{i}", True)
    assert len(log) == 3
    assert log.dropped == 7
    # The survivors are the *newest* records (ring buffer, not a gate).
    assert [r.target for r in log] == ["t7", "t8", "t9"]
    # Query helpers see only what survived.
    assert len(log.records(operation="op")) == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        make_log(capacity=0)
    with pytest.raises(ValueError):
        make_log(capacity=-5)


def test_clear_resets_dropped():
    log = make_log(capacity=2)
    for i in range(5):
        log.record("d", "op", str(i), True)
    assert log.dropped == 3
    log.clear()
    assert len(log) == 0 and log.dropped == 0
    log.record("d", "op", "fresh", True)
    assert len(log) == 1


def test_records_stamp_current_span_when_tracing():
    clock = VirtualClock()
    log = AuditLog(clock)
    tracer = Tracer(clock=clock)
    try:
        log.record("d", "op", "untraced", True)
        runtime.install(tracer=tracer)
        with tracer.span("protocol.get_proxy") as span:
            log.record("d", "op", "traced", False)
    finally:
        runtime.uninstall()
    untraced, traced = list(log)
    assert untraced.span_id == ""
    assert traced.span_id == span.span_id
    assert log.by_span(span.span_id) == [traced]


def test_testbed_default_is_bounded():
    bed = Testbed(1)
    assert bed.home.audit.capacity == 4096
    # Explicit override (including back to unlimited) still works.
    bed2 = Testbed(1, server_kwargs={"audit_capacity": None})
    assert bed2.home.audit.capacity is None
