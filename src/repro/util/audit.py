"""Security audit log.

The security manager acts as a *reference monitor* (section 3.2, citing
Ames et al.); a reference monitor must be auditable.  Every mediated
decision — allow or deny — is appended here, so tests and operators can
assert not just that an attack failed but *which mechanism* stopped it.

Long simulations used to grow the log without bound; a ``capacity``
turns it into a ring buffer (oldest records dropped, tallied in
:attr:`AuditLog.dropped`).  The default stays unlimited so short-lived
tests see everything; the testbed wires a sane default for whole-world
runs.

When tracing is enabled (:mod:`repro.obs.runtime`), each record is
stamped with the span id current at record time, which is what lets the
flight recorder tie an audit decision ("DENY resource.get_proxy") to the
exact protocol step span that produced it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from repro.obs import runtime as _obs
from repro.util.clock import Clock, VirtualClock

__all__ = ["AuditRecord", "AuditLog"]


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One mediated security decision."""

    time: float
    domain: str  # protection-domain id of the requester ("<server>" for host)
    operation: str  # e.g. "proxy.invoke", "secman.check_thread_create"
    target: str  # resource/method/thread-group the operation addressed
    allowed: bool
    detail: str = ""
    span_id: str = ""  # the trace span active at record time ("" untraced)

    def __str__(self) -> str:  # pragma: no cover - human formatting
        verdict = "ALLOW" if self.allowed else "DENY"
        return f"[{self.time:10.4f}] {verdict:5s} {self.domain} {self.operation} {self.target} {self.detail}"


class AuditLog:
    """Append-only list of :class:`AuditRecord`, with query helpers.

    ``capacity=None`` (default) keeps every record; with a capacity the
    log is a ring buffer and :attr:`dropped` counts evictions.
    """

    def __init__(
        self, clock: Clock | None = None, *, capacity: int | None = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("audit capacity must be positive (or None)")
        self._clock: Clock = clock if clock is not None else VirtualClock()
        self.capacity = capacity
        self._records: deque[AuditRecord] = deque(maxlen=capacity)
        self.dropped = 0

    def record(
        self,
        domain: str,
        operation: str,
        target: str,
        allowed: bool,
        detail: str = "",
    ) -> AuditRecord:
        span_id = ""
        if _obs.TRACING:
            span = _obs.TRACER.current_span()
            if span is not None:
                span_id = span.span_id
        rec = AuditRecord(
            time=self._clock.now(),
            domain=domain,
            operation=operation,
            target=target,
            allowed=allowed,
            detail=detail,
            span_id=span_id,
        )
        if (
            self.capacity is not None
            and len(self._records) == self.capacity
        ):
            self.dropped += 1  # deque(maxlen) evicts the oldest on append
        self._records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    def records(
        self,
        *,
        domain: str | None = None,
        operation: str | None = None,
        allowed: bool | None = None,
    ) -> list[AuditRecord]:
        """Filtered view of the log."""
        out = []
        for rec in self._records:
            if domain is not None and rec.domain != domain:
                continue
            if operation is not None and rec.operation != operation:
                continue
            if allowed is not None and rec.allowed != allowed:
                continue
            out.append(rec)
        return out

    def as_dict(self) -> dict[str, int | float]:
        """Metrics-source protocol (``register_source("audit", log)``).

        ``dropped`` is the load-bearing number: silent ring-buffer
        evictions mean security decisions went unrecorded, so it should
        read zero in a scrape (``audit.dropped{server=...}``).
        ``records`` and ``occupancy`` are floats (gauge semantics — a
        ring buffer's fill level is instantaneous, not monotone).
        """
        capacity = self.capacity
        occupancy = (
            len(self._records) / capacity if capacity else 0.0
        )
        return {
            "dropped": self.dropped,
            "records": float(len(self._records)),
            "capacity": float(capacity or 0),
            "occupancy": occupancy,
        }

    def by_span(self, span_id: str) -> list[AuditRecord]:
        """Records stamped with the given trace span id."""
        return [rec for rec in self._records if rec.span_id == span_id]

    def denials(self) -> list[AuditRecord]:
        """All denied operations (the attacks that were stopped)."""
        return self.records(allowed=False)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
