"""Process-wide observability switchboard.

Instrumentation points all over the codebase (proxy forwarders, the
binding protocol, the transfer path, transports, retries, fault
injection) guard themselves on the module-level flag here::

    from repro.obs import runtime as _obs
    ...
    if _obs.TRACING:
        _obs.TRACER.add_event("retry", attempt=n)

:func:`span` is the one way to open a span; a site is written once and
does its span-only work behind ``if span is not None``::

    with _obs.span("rpc.call", dst=dst) as span:
        ...

When nothing is installed the cost of a guarded hook is one
module-attribute read and a falsy test; a ``span`` site evaluates its
attribute arguments and then enters one shared no-op scope.  Benchmarks
F5/F6 pin that this stays within noise of the uninstrumented build.
``install``/``uninstall`` flip the flag; it is process-global on
purpose (one simulation per process is the norm everywhere in this
repo), and tests that enable tracing must uninstall on the way out (see
``tests/obs/conftest.py``).  Counting is not switched here: every
counter is a host's own (``AgentServer.telemetry``), always on.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, ContextManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span, SpanContext, Tracer

__all__ = [
    "TRACING",
    "TRACER",
    "install",
    "uninstall",
    "span",
    "annotate",
]

# The fast-path guard: True exactly when a tracer is installed.
TRACING: bool = False
TRACER: "Tracer | None" = None

# What ``span`` returns with tracing off: stateless, so one instance is
# shared (and re-entered) by every site; its ``as`` target is None.
_NO_SPAN = nullcontext()


def install(tracer: "Tracer") -> None:
    """Turn tracing on (installing again replaces the tracer)."""
    global TRACER, TRACING
    TRACER = tracer
    TRACING = True


def uninstall() -> None:
    """Turn every hook back into a no-op (drops the installed tracer)."""
    global TRACER, TRACING
    TRACER = None
    TRACING = False


def span(
    name: str,
    parent: "Span | SpanContext | None" = None,
    **attributes: Any,
) -> "ContextManager[Span | None]":
    """``with span("rpc.call", dst=...) as s:`` — ``s`` is None when off.

    With a tracer installed this is ``TRACER.span(name, parent,
    **attributes)``; otherwise the shared no-op scope.
    """
    if TRACING:
        return TRACER.span(name, parent, **attributes)
    return _NO_SPAN


def annotate(kind: str, detail: str = "", **attributes: Any) -> None:
    """Forward a global annotation to the tracer, if one is installed."""
    if TRACER is not None:
        TRACER.annotate(kind, detail, **attributes)
