"""repro.obs — the flight recorder: tracing, metrics, post-mortem queries.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — :class:`Tracer` producing causally linked
  spans whose context **propagates across agent migration** (carried in
  ``AgentImage.attributes`` like ``transfer_id``), exported as JSONL or
  Chrome trace-event JSON.
* :mod:`repro.obs.metrics` and :mod:`repro.obs.aggregate` — labeled
  counters, gauges and log-bucket histograms.  Every count lives on the
  host that counted it (its :class:`TelemetryUnit`), and a
  :class:`TelemetryCollector` federates the hosts' scrapes.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder`, the query and
  assertion API over a tracer (``trace_of``, ``spans_where``, causal
  order checks, Fig. 6 protocol reconstruction, span-leak checks).

Span hooks across the codebase are no-ops until :func:`install` sets
:data:`repro.obs.runtime.TRACING`; the convenient way in is
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
from repro.obs.slo import agent_conservation_residual
from repro.obs.trace import Span, SpanContext, Tracer, WallClock

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
    "snapshot_delta",
    # conservation residual (repro.obs.slo)
    "agent_conservation_residual",
]
