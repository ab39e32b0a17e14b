"""Simulated threads: plain blocking Python under a deterministic scheduler.

Each :class:`SimThread` is a real OS thread, but *exactly one* thread (the
one that called :meth:`Kernel.run` or one simulated thread) runs at any
instant.  Control moves via a baton: every thread owns a raw lock, created
held, and is handed the baton by releasing it.  Blocking operations —
``sleep``, synchronization primitives in :mod:`repro.sim.sync`, ``join`` —
park the thread and schedule its wake-up as an ordinary kernel event
(:meth:`Kernel.resume`), so execution order is a pure function of the
event queue and is reproducible run-to-run.  A yielding thread whose next
queued event is another thread's resume fires it and wakes that thread
directly (:meth:`Kernel._hand_off`); every other event action still runs
on the OS thread that called ``run()``.

This is the substrate for Ajanta's protection-domain identification: the
server runs every visiting agent in its own (group of) simulated threads,
and the security manager asks "which thread group is the current thread
in?" to decide which protection domain a request comes from (section 5.3).
"""

from __future__ import annotations

import _thread
import enum
import threading
from typing import Any, Callable, Protocol

from repro.errors import AgentStateError, SimulationError
from repro.sim.kernel import Kernel

__all__ = ["SimThread", "ThreadState", "Interrupted", "WaitTarget"]


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    KILLED = "killed"


class Interrupted(SimulationError):
    """Raised inside a simulated thread that was interrupted while blocked."""


class WaitTarget(Protocol):
    """Something a blocked thread can be waiting on (for interruption)."""

    def _remove_waiter(self, thread: "SimThread") -> None: ...


class _SleepTarget:
    """Wait target for ``sleep``: cancelling the wake-up event suffices."""

    __slots__ = ("_handle",)

    def __init__(self, handle: Any) -> None:
        self._handle = handle

    def _remove_waiter(self, thread: "SimThread") -> None:
        self._handle.cancel()


class SimThread:
    """A deterministically scheduled thread of control.

    Parameters
    ----------
    kernel:
        The owning simulation kernel.
    target:
        Callable executed in the thread; its return value becomes
        :attr:`result`.
    name:
        Diagnostic name.
    on_error:
        ``"raise"`` (default): an uncaught exception aborts the simulation
        at the kernel level.  ``"store"``: the exception is kept on
        :attr:`exception` for a joiner to collect (used for agent threads,
        whose failures are a normal, handled occurrence).
    context:
        Arbitrary metadata slot; the sandbox layer stores the thread's
        thread-group here.
    """

    def __init__(
        self,
        kernel: Kernel,
        target: Callable[[], Any],
        name: str = "thread",
        *,
        on_error: str = "raise",
        context: dict[str, Any] | None = None,
    ) -> None:
        if on_error not in ("raise", "store"):
            raise ValueError(f"on_error must be 'raise' or 'store', not {on_error!r}")
        self.kernel = kernel
        self.name = name
        self.state = ThreadState.NEW
        self.result: Any = None
        self.exception: BaseException | None = None
        self.context: dict[str, Any] = context if context is not None else {}
        self._target = target
        self._on_error = on_error
        self._resume = _thread.allocate_lock()  # released to hand us the baton
        self._resume.acquire()
        self._interrupt_exc: BaseException | None = None
        self._waiting_on: WaitTarget | None = None
        self._joiners: list["SimThread"] = []
        self._os_thread = threading.Thread(
            target=self._bootstrap, name=f"sim:{name}", daemon=True
        )
        kernel._register_thread(self)

    # -- lifecycle ------------------------------------------------------------

    def start(self, delay: float = 0.0) -> "SimThread":
        """Schedule the thread to begin running ``delay`` seconds from now."""
        if self.state is not ThreadState.NEW:
            raise AgentStateError(f"thread {self.name!r} already started")
        self.state = ThreadState.READY
        self._os_thread.start()
        self.kernel.resume(self, delay)
        return self

    def _bootstrap(self) -> None:
        self._resume.acquire()
        self.state = ThreadState.RUNNING
        try:
            self.result = self._target()
        except _Kill:
            self.state = ThreadState.KILLED
        except BaseException as exc:  # noqa: BLE001 - report, don't swallow
            self.exception = exc
            self.state = ThreadState.FAILED
            if self._on_error == "raise":
                self.kernel._note_thread_failure(self)
        else:
            self.state = ThreadState.DONE
        finally:
            self._wake_joiners()
            # Finished: no resume of ours is queued, so this cannot
            # return True (keep the baton).
            self.kernel._hand_off(self)

    def _wake_joiners(self) -> None:
        joiners, self._joiners = self._joiners, []
        for joiner in joiners:
            self.kernel.resume(joiner)

    # -- blocking (called from inside the thread itself) ------------------------

    def _block(self, waiting_on: WaitTarget | None = None) -> None:
        """Park this thread and pass the baton on (:meth:`Kernel._hand_off`).

        Only callable from the thread itself.  Something must already have
        arranged a future wake-up (scheduled event or waiter-list entry).
        """
        assert self.kernel.current_thread() is self, "block called off-thread"
        self.state = ThreadState.BLOCKED
        self._waiting_on = waiting_on
        if not self.kernel._hand_off(self):
            self._resume.acquire()
        self._waiting_on = None
        self.state = ThreadState.RUNNING
        if self._interrupt_exc is not None:
            exc, self._interrupt_exc = self._interrupt_exc, None
            raise exc

    def sleep(self, duration: float) -> None:
        """Block for ``duration`` seconds of virtual time."""
        handle = self.kernel.resume(self, duration)
        self._block(_SleepTarget(handle))

    def join(self, *, reraise: bool = True) -> Any:
        """Block until this thread finishes; return its result.

        With ``reraise=True`` (default) a failure in the joined thread is
        re-raised in the joiner.
        """
        current = self.kernel.current_thread()
        if current is None:
            raise SimulationError("join() must be called from a simulated thread")
        if current is self:
            raise SimulationError("thread cannot join itself")
        if self.state in (ThreadState.NEW, ThreadState.READY, ThreadState.RUNNING,
                          ThreadState.BLOCKED):
            self._joiners.append(current)
            current._block(_JoinTarget(self))
        if self.state is ThreadState.FAILED and reraise:
            assert self.exception is not None
            raise self.exception
        return self.result

    # -- external control --------------------------------------------------------

    def interrupt(self, exc: BaseException | None = None) -> None:
        """Wake a blocked thread with an exception (default Interrupted).

        Used for agent control commands (section 4: "issuing control
        commands to them").  No effect on finished threads; interrupting a
        thread that is READY but not yet blocked marks the interrupt as
        pending — it fires at the thread's next blocking point.
        """
        if self.state in (ThreadState.DONE, ThreadState.FAILED, ThreadState.KILLED):
            return
        self._interrupt_exc = exc if exc is not None else Interrupted(
            f"thread {self.name!r} interrupted"
        )
        if self.state is ThreadState.BLOCKED and self._waiting_on is not None:
            # Cancel the original wake-up and schedule our own.  When a
            # second interrupt lands before the first resume runs (e.g. a
            # watchdog deadline followed by a kill), ``_waiting_on`` is
            # already None and a wake-up is already scheduled — replacing
            # the pending exception suffices; scheduling another resume
            # would hand the baton to a thread that has since finished.
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
            self.kernel.resume(self)

    def kill(self) -> None:
        """Terminate the thread at its next blocking point."""
        self.interrupt(_Kill())

    # -- introspection ------------------------------------------------------------

    @property
    def is_blocked(self) -> bool:
        return self.state is ThreadState.BLOCKED

    @property
    def is_alive(self) -> bool:
        return self.state in (
            ThreadState.READY,
            ThreadState.RUNNING,
            ThreadState.BLOCKED,
        )

    @property
    def finished(self) -> bool:
        return self.state in (ThreadState.DONE, ThreadState.FAILED, ThreadState.KILLED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, {self.state.value})"


class _JoinTarget:
    """Wait target for ``join``: drop the joiner from the joinee's list."""

    __slots__ = ("_thread",)

    def __init__(self, thread: SimThread) -> None:
        self._thread = thread

    def _remove_waiter(self, thread: SimThread) -> None:
        if thread in self._thread._joiners:
            self._thread._joiners.remove(thread)


class _Kill(BaseException):
    """Internal sentinel raised to terminate a thread; never escapes."""
