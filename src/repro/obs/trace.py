"""Spans, trace contexts and the :class:`Tracer` — the flight recorder's pen.

A *span* is one timed operation (``start``/``end`` in kernel time) with a
name, attributes, timestamped events, and a status.  Spans form a tree
via ``parent_id`` and share a ``trace_id``; a mobile agent's whole tour —
launch, admission, binding, the six protocol steps, proxy invocations,
departures with retries, arrivals on other servers — is **one trace**,
because the span context hops servers inside the agent image's
attributes exactly like ``transfer_id`` does (see
``repro.server.agent_server``).

Context management is per *OS thread*: a simulated thread
(:mod:`repro.sim.threads`) runs from start to finish on one pooled
carrier OS thread under a deterministic baton, and a carrier takes its
next thread only with no open span of the installed tracer, so keying
the active-span stack on :func:`threading.current_thread` gives every
agent/recovery/kernel context its own properly nested stack even though
spans of different threads interleave in virtual time.  Span ids come
from plain counters — no wall clock, no randomness — so traces are
bit-reproducible run to run.

Exports: JSON-lines (one span per line, greppable) and the Chrome
trace-event format (load the file in ``chrome://tracing`` or
https://ui.perfetto.dev; servers become process rows).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, NamedTuple

__all__ = ["SpanContext", "Span", "Tracer", "WallClock"]


class SpanContext(NamedTuple):
    """What must travel for a child span elsewhere to join the trace."""

    trace_id: str
    span_id: str

    def to_attributes(self) -> dict[str, str]:
        """Wire encoding (carried in ``AgentImage.attributes['trace_ctx']``)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_attributes(cls, raw: object) -> "SpanContext | None":
        """Parse a wire-carried context; None for anything malformed.

        Trace context arriving on an agent image is attacker-controlled
        input, so this never raises — observability must not change
        admission behaviour.
        """
        if not isinstance(raw, dict):
            return None
        tid, sid = raw.get("trace_id"), raw.get("span_id")
        if (
            isinstance(tid, str) and isinstance(sid, str)
            and 0 < len(tid) <= 64 and 0 < len(sid) <= 64
        ):
            return cls(tid, sid)
        return None


class WallClock:
    """Fallback clock (monotonic seconds) for tracers outside a simulation."""

    __slots__ = ("_origin",)

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin


class Span:
    """One timed, attributed operation in a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attributes",
        "events",
        "status",
        "status_detail",
        "_stack_key",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        attributes: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes = attributes
        self.events: list[tuple[float, str, dict[str, Any]]] = []
        self.status = "unset"  # "unset" | "ok" | "error"
        self.status_detail = ""
        self._stack_key: object = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def is_open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.span_id} ({self.name}) is still open")
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def adopt_context(self, parent: SpanContext) -> "Span":
        """Re-root this span under a context learned *after* it opened.

        The arrival case: the receiving server opens its admit span
        before it can decode the image that carries the sender's trace
        context.  Only valid while no child span has been started —
        children copy ``trace_id`` at creation time.
        """
        self.trace_id = parent.trace_id
        self.parent_id = parent.span_id
        return self

    def set_status(self, status: str, detail: str = "") -> "Span":
        if status not in ("unset", "ok", "error"):
            raise ValueError(f"unknown span status {status!r}")
        self.status = status
        self.status_detail = detail
        return self

    def event_names(self) -> list[str]:
        return [name for _, name, _ in self.events]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "status_detail": self.status_detail,
            "attributes": dict(self.attributes),
            "events": [
                {"time": t, "name": n, "attributes": a} for t, n, a in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.is_open else f"{self.status}@{self.end:g}"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class _SpanScope:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if exc is not None and span.status == "unset":
            span.set_status("error", f"{exc_type.__name__}: {exc}")
        self._tracer.end_span(span)


class Tracer:
    """Produces spans on one clock; owns every finished span it made.

    ``clock`` is anything with ``now() -> float`` — pass the simulation's
    :class:`~repro.util.clock.VirtualClock` (``testbed.clock``) so span
    times are kernel times; a :class:`WallClock` is used when omitted
    (benchmark tooling).
    """

    def __init__(self, clock: Any | None = None, service: str = "repro") -> None:
        self.clock = clock if clock is not None else WallClock()
        self.service = service
        self.finished: list[Span] = []
        self.annotations: list[tuple[float, str, str, dict[str, Any]]] = []
        self._open: dict[str, Span] = {}
        self._stacks: dict[object, list[Span]] = {}
        self._next_trace = 1
        self._next_span = 1

    # -- context -----------------------------------------------------------

    @staticmethod
    def _key() -> object:
        return threading.current_thread()

    def current_span(self) -> Span | None:
        """The innermost open span of the calling (OS) thread, if any."""
        stack = self._stacks.get(self._key())
        return stack[-1] if stack else None

    def current_context(self) -> SpanContext | None:
        span = self.current_span()
        return span.context if span is not None else None

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        **attributes: Any,
    ) -> Span:
        """Open a span and make it the calling thread's current span.

        ``parent=None`` means "the calling thread's current span, or a
        fresh root trace if there is none".  Pass an explicit
        :class:`SpanContext` to continue a trace started elsewhere (the
        migration case).
        """
        if parent is None:
            current = self.current_span()
            parent_ctx = current.context if current is not None else None
        elif isinstance(parent, Span):
            parent_ctx = parent.context
        else:
            parent_ctx = parent
        if parent_ctx is None:
            trace_id = f"trace-{self._next_trace:04d}"
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        span_id = f"span-{self._next_span:06d}"
        self._next_span += 1
        span = Span(
            trace_id, span_id, parent_id, name, self.clock.now(), attributes
        )
        key = self._key()
        span._stack_key = key
        self._stacks.setdefault(key, []).append(span)
        self._open[span_id] = span
        return span

    def end_span(self, span: Span, at: float | None = None) -> Span:
        """Close ``span`` (idempotent) and pop it off its thread's stack."""
        if span.end is not None:
            return span
        span.end = self.clock.now() if at is None else at
        if span.status == "unset":
            span.status = "ok"
        self._open.pop(span.span_id, None)
        stack = self._stacks.get(span._stack_key)
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not stack:
                del self._stacks[span._stack_key]
        self.finished.append(span)
        return span

    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        **attributes: Any,
    ) -> _SpanScope:
        """``with tracer.span("rpc.call", dst=...) as s: ...``

        On exception the span is closed with status ``error`` (detail =
        exception type and message) and the exception propagates.
        """
        return _SpanScope(self, self.start_span(name, parent, **attributes))

    # -- events and annotations -------------------------------------------

    def add_event(self, name: str, **attributes: Any) -> None:
        """Attach a timestamped event to the current span (no-op without one)."""
        span = self.current_span()
        if span is not None:
            span.events.append((self.clock.now(), name, attributes))

    def annotate(self, kind: str, detail: str = "", **attributes: Any) -> None:
        """Record a global, span-less annotation (e.g. an injected fault)."""
        self.annotations.append((self.clock.now(), kind, detail, attributes))

    # -- inspection --------------------------------------------------------

    def open_spans(self) -> list[Span]:
        """Spans started but never ended — the leak check's subject."""
        return list(self._open.values())

    def active_stacks(self) -> dict[object, list[Span]]:
        """Every thread's open-span stack, outermost first (copies).

        The sampling profiler's read surface: at each virtual-time tick
        it turns each stack into one flame sample.  Keys are the OS
        thread objects the stacks are keyed on; callers treat them as
        opaque identities.
        """
        return {key: list(stack) for key, stack in self._stacks.items() if stack}

    def spans(self, *, include_open: bool = False) -> list[Span]:
        out = list(self.finished)
        if include_open:
            out.extend(self._open.values())
        return out

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.finished:
            seen.setdefault(span.trace_id, None)
        for span in self._open.values():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        self.finished.clear()
        self.annotations.clear()

    # -- export ------------------------------------------------------------

    def export_jsonl(self, path: str | None = None) -> str:
        """One JSON object per finished span, in end order."""
        text = "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.finished)
        if text:
            text += "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def export_chrome(self, path: str | None = None) -> dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

        Spans become complete ("X") events on a ``pid`` of their
        ``server`` attribute (falling back to the tracer's service name)
        and a ``tid`` of their trace id, so one agent's tour reads as one
        row per server.  Span events and global annotations become
        instant ("i") events; injected faults carry ``injected: true`` so
        post-mortems separate them from organic failures.
        """
        events: list[dict[str, Any]] = []
        for span in self.finished:
            pid = str(span.attributes.get("server", self.service))
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": ((span.end or span.start) - span.start) * 1e6,
                    "pid": pid,
                    "tid": span.trace_id,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "status": span.status,
                        "status_detail": span.status_detail,
                        **span.attributes,
                    },
                }
            )
            for t, name, attrs in span.events:
                events.append(
                    {
                        "name": f"{span.name}/{name}",
                        "cat": "event",
                        "ph": "i",
                        "ts": t * 1e6,
                        "s": "t",
                        "pid": pid,
                        "tid": span.trace_id,
                        "args": {"span_id": span.span_id, **attrs},
                    }
                )
        for t, kind, detail, attrs in self.annotations:
            events.append(
                {
                    "name": kind,
                    "cat": "annotation",
                    "ph": "i",
                    "ts": t * 1e6,
                    "s": "g",
                    "pid": "faults" if attrs.get("injected") else self.service,
                    "tid": "annotations",
                    "args": {"detail": detail, **attrs},
                }
            )
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return doc
