"""Thread groups: how the security manager identifies protection domains.

Section 5.3, "Domain identification": every agent executes under its own
thread group; all server threads share the server group.  The *current*
group is derived from execution context — a stack kept in OS-thread-local
storage — never from arguments a caller could forge.  Simulated threads
(each runs from start to finish on one pooled carrier OS thread, which
must find this stack empty before it takes the next) establish their
group at start; the server establishes its group around kernel-context
callbacks; tests and micro-benchmarks use :func:`enter_group` directly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sandbox.domain import ProtectionDomain
    from repro.sim.threads import SimThread

__all__ = ["ThreadGroup", "current_group", "enter_group", "wrap_in_group"]

_tls = threading.local()


class ThreadGroup:
    """A named group; parent links form the server>agents hierarchy."""

    __slots__ = ("name", "parent", "domain", "_members", "__weakref__")

    def __init__(self, name: str, parent: "ThreadGroup | None" = None) -> None:
        self.name = name
        self.parent = parent
        self.domain: "ProtectionDomain | None" = None  # backref, set by domain
        # The unfinished simulated threads of this group, so group-wide
        # control (terminate a whole agent, runaway kills) reaches worker
        # threads too — not just the resident's main thread.  Each one
        # leaves as it finishes, so finished threads do not pin memory.
        self._members: dict["SimThread", None] = {}

    def is_within(self, other: "ThreadGroup") -> bool:
        """True if this group equals ``other`` or descends from it."""
        node: ThreadGroup | None = self
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False

    def adopt(self, thread: "SimThread") -> None:
        """Track ``thread`` as a member (section 5.3: "all threads
        created by the agent belong to the same thread group")."""
        self._members[thread] = None
        thread.on_finish(self._release)

    def _release(self, thread: "SimThread") -> None:
        self._members.pop(thread, None)

    def live_threads(self) -> list["SimThread"]:
        """The group's currently alive simulated threads."""
        return [thread for thread in self._members if thread.is_alive]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadGroup({self.name!r})"


def _stack() -> list[ThreadGroup]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_group() -> ThreadGroup | None:
    """The thread group of the currently executing code (None = unmanaged)."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def enter_group(group: ThreadGroup) -> Iterator[None]:
    """Execute the body under ``group``.

    Only infrastructure code (the server, the scheduler glue, tests) calls
    this; it is never exposed to agent namespaces, so agents cannot forge
    their identity by switching groups.
    """
    stack = _stack()
    stack.append(group)
    try:
        yield
    finally:
        popped = stack.pop()
        assert popped is group, "thread-group stack corrupted"


def wrap_in_group(group: ThreadGroup, target: Callable[[], Any]) -> Callable[[], Any]:
    """A callable that runs ``target`` inside ``group`` (for thread targets)."""

    def runner() -> Any:
        with enter_group(group):
            return target()

    return runner
