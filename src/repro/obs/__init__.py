"""repro.obs — the flight recorder: tracing, metrics, post-mortem queries.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — :class:`Tracer` producing causally linked
  spans whose context **propagates across agent migration** (carried in
  ``AgentImage.attributes`` like ``transfer_id``), exported as JSONL or
  Chrome trace-event JSON.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, log-bucket histograms) that also absorbs the
  legacy per-object stat counters behind one labeled namespace.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder`, the query and
  assertion API over a tracer (``trace_of``, ``spans_where``, causal
  order checks, Fig. 6 protocol reconstruction, span-leak checks).

Instrumentation hooks across the codebase are no-ops until
:func:`install` flips the module-level flags in
:mod:`repro.obs.runtime`; the convenient way in is
``Testbed.start_tracing()``.
"""

from repro.obs.aggregate import (
    TELEMETRY_APP_KIND,
    MetricSnapshot,
    TelemetryCollector,
    TelemetryUnit,
    snapshot_delta,
)
from repro.obs.metrics import Histogram, MetricsRegistry, render_scrape
from repro.obs.recorder import (
    PROTOCOL_STEP_NAMES,
    SEGMENT_CATEGORIES,
    FlightRecorder,
)
from repro.obs.runtime import install, uninstall
from repro.obs.slo import (
    AvailabilityObjective,
    GoodputObjective,
    InvariantObjective,
    LatencyObjective,
    SLOMonitor,
    SLOStatus,
    agent_conservation_residual,
    audit_drop_residual,
    replica_divergence_residual,
)
from repro.obs.trace import Span, SpanContext, Tracer, WallClock


def __getattr__(name: str):
    # CollectorAgent pulls in the agent stack, which itself imports
    # repro.obs — resolve it lazily to keep the package import acyclic.
    if name == "CollectorAgent":
        from repro.obs import aggregate

        return aggregate.CollectorAgent
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Tracer",
    "Span",
    "SpanContext",
    "WallClock",
    "MetricsRegistry",
    "Histogram",
    "render_scrape",
    "FlightRecorder",
    "PROTOCOL_STEP_NAMES",
    "SEGMENT_CATEGORIES",
    "install",
    "uninstall",
    # federation (repro.obs.aggregate)
    "TELEMETRY_APP_KIND",
    "MetricSnapshot",
    "TelemetryUnit",
    "TelemetryCollector",
    "CollectorAgent",
    "snapshot_delta",
    # objectives (repro.obs.slo)
    "SLOMonitor",
    "SLOStatus",
    "AvailabilityObjective",
    "LatencyObjective",
    "GoodputObjective",
    "InvariantObjective",
    "agent_conservation_residual",
    "replica_divergence_residual",
    "audit_drop_residual",
]
