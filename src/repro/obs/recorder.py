"""The flight recorder: query, reconstruct and assert over traces.

A :class:`FlightRecorder` wraps one :class:`~repro.obs.trace.Tracer` and
answers post-mortem questions — "what happened to agent X on hop 3, and
why was its ``getProxy`` denied?" — that the scattered per-object
counters never could.  It is also the tests' assertion vocabulary:
causal-order checks, span-leak checks, and the Fig. 6 six-step protocol
reconstruction.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.obs.trace import Span, Tracer

__all__ = ["FlightRecorder", "PROTOCOL_STEP_NAMES", "SEGMENT_CATEGORIES"]

# Span-name prefix -> latency segment, for critical-path decomposition.
# A span's name head (the text before its first ".") must equal a prefix
# exactly; spans matching none fall into "other".
SEGMENT_CATEGORIES: tuple[tuple[str, str], ...] = (
    ("secure", "crypto"),       # handshakes, sealed calls, MAC work
    ("sec", "crypto"),
    ("rpc", "network"),         # raw transport request/response
    ("net", "network"),
    ("transfer", "queue"),      # departure/admit machinery, retries
    ("report", "queue"),
    ("retry", "queue"),
    ("protocol", "supervision"),  # Fig. 6 binding steps
    ("proxy", "supervision"),     # mediated invocation
    ("admission", "supervision"),
    ("supervisor", "supervision"),
    ("agent", "compute"),       # the agent's own residency/launch time
)


def categorize_span(name: str) -> str:
    """The latency segment a span name belongs to (see SEGMENT_CATEGORIES)."""
    head = name.split(".", 1)[0]
    for prefix, category in SEGMENT_CATEGORIES:
        if head == prefix:
            return category
    return "other"

# Fig. 6's resource request protocol, as span names (step 6 — "agent
# accesses resource via proxy" — is every proxy.invoke span).
PROTOCOL_STEP_NAMES: tuple[tuple[int, str], ...] = (
    (1, "protocol.register"),
    (2, "protocol.request"),
    (3, "protocol.lookup"),
    (4, "protocol.get_proxy"),
    (5, "protocol.record_binding"),
    (6, "proxy.invoke"),
)


def _lineage(span: Span, by_id: dict[str, Span]) -> Iterator[Span]:
    """``span``, then each parent found in ``by_id``, innermost first.

    Stops at a parent missing from ``by_id`` and at a repeat: an arriving
    image's parent context is attacker-controlled and may close a cycle.
    """
    seen: set[str] = set()
    current: Span | None = span
    while current is not None and current.span_id not in seen:
        seen.add(current.span_id)
        yield current
        current = by_id.get(current.parent_id)


class FlightRecorder:
    """Read-side companion of a tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    # -- raw access --------------------------------------------------------

    def spans(self, *, include_open: bool = False) -> list[Span]:
        return self.tracer.spans(include_open=include_open)

    def open_spans(self) -> list[Span]:
        return self.tracer.open_spans()

    def annotations(self, kind: str | None = None) -> list[tuple]:
        if kind is None:
            return list(self.tracer.annotations)
        return [a for a in self.tracer.annotations if a[1] == kind]

    # -- queries -----------------------------------------------------------

    def spans_where(
        self,
        name: str | None = None,
        *,
        trace_id: str | None = None,
        status: str | None = None,
        predicate: Callable[[Span], bool] | None = None,
        include_open: bool = False,
        **attributes: Any,
    ) -> list[Span]:
        """Filter spans by name, trace, status and attribute equality."""
        out = []
        for span in self.tracer.spans(include_open=include_open):
            if name is not None and span.name != name:
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if status is not None and span.status != status:
                continue
            if any(span.attributes.get(k) != v for k, v in attributes.items()):
                continue
            if predicate is not None and not predicate(span):
                continue
            out.append(span)
        return self._causal_sort(out)

    def trace_ids_of(self, agent_urn: Any) -> list[str]:
        """Distinct traces that mention the agent, in first-seen order."""
        agent = str(agent_urn)
        seen: dict[str, None] = {}
        for span in self.tracer.spans(include_open=True):
            if span.attributes.get("agent") == agent:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def trace_of(self, agent_urn: Any) -> list[Span]:
        """Every span of the agent's (single) trace, causally ordered.

        Raises :class:`ValueError` when the agent appears in zero or in
        more than one trace — more than one means context propagation
        broke somewhere, which is precisely what tests must catch.
        """
        ids = self.trace_ids_of(agent_urn)
        if len(ids) != 1:
            raise ValueError(
                f"agent {agent_urn} appears in {len(ids)} traces: {ids}"
            )
        return self.spans_where(trace_id=ids[0], include_open=True)

    # -- causal structure --------------------------------------------------

    def _causal_sort(self, spans: list[Span]) -> list[Span]:
        """Start-time order with span-id sequence as the tiebreak.

        Span ids are allocated monotonically from one counter, so the
        tiebreak reflects program order even when many spans open at the
        same virtual instant.
        """
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def is_ancestor(self, ancestor: Span, descendant: Span) -> bool:
        """True when ``ancestor`` is on ``descendant``'s parent chain."""
        if ancestor.trace_id != descendant.trace_id:
            return False
        by_id = {
            s.span_id: s
            for s in self.tracer.spans(include_open=True)
            if s.trace_id == descendant.trace_id
        }
        by_id.setdefault(ancestor.span_id, ancestor)
        chain = _lineage(descendant, by_id)
        next(chain)  # the descendant itself
        return any(span.span_id == ancestor.span_id for span in chain)

    def assert_causal_order(self, spans: Iterable[Span]) -> None:
        """Assert the given spans share a trace and start in list order.

        The workhorse of protocol-order tests: pass the spans in the
        order the protocol mandates; any out-of-order start (or a trace
        mismatch) raises :class:`AssertionError` naming the offenders.
        """
        spans = list(spans)
        for earlier, later in zip(spans, spans[1:]):
            if earlier.trace_id != later.trace_id:
                raise AssertionError(
                    f"{earlier.name} ({earlier.trace_id}) and {later.name}"
                    f" ({later.trace_id}) are not in the same trace"
                )
            if (earlier.start, earlier.span_id) > (later.start, later.span_id):
                raise AssertionError(
                    f"{earlier.name} (start={earlier.start}, {earlier.span_id})"
                    f" does not precede {later.name}"
                    f" (start={later.start}, {later.span_id})"
                )

    def assert_no_open_spans(self) -> None:
        leaked = self.open_spans()
        if leaked:
            names = ", ".join(f"{s.name}[{s.span_id}]" for s in leaked)
            raise AssertionError(f"{len(leaked)} span(s) left open: {names}")

    # -- Fig. 6 reconstruction ---------------------------------------------

    def protocol_steps(
        self, agent_urn: Any, resource: str | None = None
    ) -> list[tuple[int, Span]]:
        """The six-step resource request protocol, reassembled.

        Returns ``(step_number, span)`` pairs in causal order for the
        agent's trace: step 1 is the resource's registration span (found
        in *any* trace — servers register resources before agents
        arrive), steps 2–5 are the binding spans in the agent's trace,
        and step 6 is every subsequent proxy invocation.  ``resource``
        narrows the reconstruction to one resource name/type.
        """
        steps: list[tuple[int, Span]] = []
        registered = self.spans_where("protocol.register")
        if resource is not None:
            registered = [
                s for s in registered
                if s.attributes.get("resource") == resource
                or s.attributes.get("resource_type") == resource
            ]
        steps.extend((1, s) for s in registered)
        trace_spans = self.trace_of(agent_urn)
        for span in trace_spans:
            for number, name in PROTOCOL_STEP_NAMES[1:]:
                if span.name != name:
                    continue
                if resource is not None and span.attributes.get(
                    "resource"
                ) != resource and span.attributes.get("resource_type") != resource:
                    continue
                steps.append((number, span))
        return steps

    # -- critical-path decomposition ----------------------------------------

    def critical_path(self, trace: "str | Any | Iterable[Span]") -> dict:
        """Decompose one trace's virtual-time latency into segments.

        ``trace`` is a trace id, an agent URN (resolved via
        :meth:`trace_of`), or an explicit span list.  The trace's total
        latency (first start to last end) is partitioned into elementary
        intervals at every span boundary; each interval is attributed to
        the **innermost open span** at that instant — the latest-started
        open span, with span-id sequence as the deterministic tiebreak —
        and the span's name prefix picks the segment
        (:data:`SEGMENT_CATEGORIES`).  Intervals where *no* span is open
        count as ``"gap"`` (scheduler/queue time between recorded
        operations).  The segments partition the total exactly:
        ``sum(segments.values())`` equals ``total`` up to float
        rounding, which the O1 bench pins.

        ``stacks`` is the same partition as flame-graph input: each
        interval goes to its innermost span's causal ancestry, found by
        following ``parent_id`` within the given spans and collapsed
        outermost first as ``outer;inner``.  A span whose parent is not
        among them starts its own stack.  Gap intervals belong to no
        stack, so ``sum(stacks.values()) + gap == total``.

        Returns ``{"total", "start", "end", "segments": {category:
        seconds}, "by_span_name": {name: seconds}, "stacks": {collapsed
        stack: seconds}}``.
        """
        spans = self._resolve_trace(trace)
        closed = [s for s in spans if s.end is not None]
        if not closed:
            return {
                "total": 0.0, "start": 0.0, "end": 0.0,
                "segments": {}, "by_span_name": {}, "stacks": {},
            }
        by_id = {s.span_id: s for s in spans}

        def stack_of(span: Span) -> str:
            names = [s.name for s in _lineage(span, by_id)]
            return ";".join(reversed(names))

        start = min(s.start for s in closed)
        end = max(s.end for s in closed)
        boundaries = sorted(
            {s.start for s in closed} | {s.end for s in closed}
        )
        # Deterministic innermost choice: order once by (start, span_id).
        ordered = sorted(closed, key=lambda s: (s.start, s.span_id))
        segments: dict[str, float] = {}
        by_name: dict[str, float] = {}
        stacks: dict[str, float] = {}
        for t0, t1 in zip(boundaries, boundaries[1:]):
            width = t1 - t0
            if width <= 0:
                continue
            innermost = None
            for span in ordered:  # last match = latest-started open span
                if span.start <= t0 and span.end >= t1:
                    innermost = span
            if innermost is None:
                segments["gap"] = segments.get("gap", 0.0) + width
                continue
            category = categorize_span(innermost.name)
            segments[category] = segments.get(category, 0.0) + width
            by_name[innermost.name] = by_name.get(innermost.name, 0.0) + width
            stack = stack_of(innermost)
            stacks[stack] = stacks.get(stack, 0.0) + width
        return {
            "total": end - start,
            "start": start,
            "end": end,
            "segments": segments,
            "by_span_name": by_name,
            "stacks": stacks,
        }

    def _resolve_trace(self, trace: "str | Any | Iterable[Span]") -> list[Span]:
        if isinstance(trace, str):
            if trace.startswith("trace-"):
                return self.spans_where(trace_id=trace, include_open=True)
            return self.trace_of(trace)
        if isinstance(trace, (list, tuple)):
            return list(trace)
        if hasattr(trace, "authority"):  # a URN
            return self.trace_of(trace)
        return list(trace)

    # -- export pass-throughs ----------------------------------------------

    def export_jsonl(self, path: str | None = None) -> str:
        return self.tracer.export_jsonl(path)

    def export_chrome(self, path: str | None = None) -> dict[str, Any]:
        return self.tracer.export_chrome(path)
