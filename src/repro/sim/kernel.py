"""The discrete-event kernel: virtual clock + ordered event queue.

Events fire in ``(time, priority, insertion order)`` order, which makes
every simulation run bit-reproducible.  Simulated threads
(:mod:`repro.sim.threads`) piggyback on the same queue: "resume thread T"
is just an event action (:meth:`Kernel.resume`), and the only one a
yielding thread may fire itself instead of ``run()``
(:meth:`Kernel._hand_off`).
"""

from __future__ import annotations

import _thread
import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SchedulingError, SimulationError
from repro.util.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.threads import SimThread

__all__ = ["Kernel", "EventHandle", "RepeatingEvent"]


class EventHandle:
    """A scheduled event; may be cancelled before it fires.

    A *daemon* event (``daemon=True``) never keeps the simulation alive:
    :meth:`Kernel.run` stops once only daemon events remain in the
    queue.  Periodic background machinery — telemetry scrape rounds,
    heartbeats — schedules itself as daemon so a world that has finished
    its real work still quiesces.
    """

    __slots__ = (
        "time", "priority", "seq", "daemon", "_action", "_args", "_cancelled",
        "_kernel",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[..., Any],
        args: tuple[Any, ...],
        daemon: bool = False,
        kernel: "Kernel | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.daemon = daemon
        self._action = action
        self._args = args
        self._cancelled = False
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self._cancelled:
            return
        self._cancelled = True
        self._action = None  # type: ignore[assignment]
        self._args = ()
        if not self.daemon and self._kernel is not None:
            # Reconcile the foreground count eagerly: a cancelled
            # timeout deep in the queue must not keep run() (or its
            # daemon ticks) alive until the clock reaches its slot.
            self._kernel._nondaemon_queued -= 1
            self.daemon = True  # _note_pop must not decrement again

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )


class RepeatingEvent:
    """A self-rescheduling periodic event (see :meth:`Kernel.every`).

    ``cancel()`` stops the cycle; the currently queued firing is
    cancelled too, so no further ticks run.
    """

    __slots__ = ("_kernel", "_interval", "_action", "_args", "_priority",
                 "_daemon", "_handle", "_cancelled", "fired")

    def __init__(
        self,
        kernel: "Kernel",
        interval: float,
        action: Callable[..., Any],
        args: tuple[Any, ...],
        priority: int,
        daemon: bool,
    ) -> None:
        if interval <= 0:
            raise SchedulingError(f"repeat interval must be positive: {interval}")
        self._kernel = kernel
        self._interval = interval
        self._action = action
        self._args = args
        self._priority = priority
        self._daemon = daemon
        self._cancelled = False
        self.fired = 0
        self._handle = self._schedule_next()

    def _schedule_next(self) -> EventHandle:
        return self._kernel.schedule(
            self._interval, self._fire,
            priority=self._priority, daemon=self._daemon,
        )

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        try:
            self._action(*self._args)
        finally:
            if not self._cancelled:
                self._handle = self._schedule_next()

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Kernel:
    """Event queue, virtual clock, and the simulated-thread scheduler."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self._queue: list[EventHandle] = []
        # Queued events that are *not* daemon (cancelled ones included —
        # they are reconciled lazily when popped).  run() stops when this
        # reaches zero: daemon ticks alone never keep the world alive.
        self._nondaemon_queued = 0
        self._seq = itertools.count()
        # Released by a sim thread yielding control back to run()'s
        # caller; created held, so acquire() waits for that release.
        self._baton = _thread.allocate_lock()
        self._baton.acquire()
        # One bound method, so a queued resume is recognised by identity.
        self._transfer = self._transfer_to
        self._current: "SimThread | None" = None
        # Unfinished threads only (an ordered set): a finished thread
        # retires, releasing its target and everything it closed over.
        self._threads: dict["SimThread", None] = {}
        self._running = False
        self._until: float | None = None
        self._thread_failures: list["SimThread"] = []
        # Non-cancelled events executed, ever.  Deterministic under a
        # fixed seed, which makes it the noise-free work metric for
        # benches (wall-clock ratios of ms-scale runs are scheduler
        # jitter on shared hardware).
        self.events_processed = 0

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        daemon: bool = False,
    ) -> EventHandle:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now.

        ``daemon=True`` marks a background event that must not keep
        :meth:`run` alive once all foreground work has drained.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule event {delay}s in the past")
        handle = EventHandle(
            self.now() + delay, priority, next(self._seq), action, args,
            daemon, kernel=self,
        )
        heapq.heappush(self._queue, handle)
        if not daemon:
            self._nondaemon_queued += 1
        return handle

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``action(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now(), action, *args, priority=priority)

    def every(
        self,
        interval: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        daemon: bool = True,
    ) -> RepeatingEvent:
        """Run ``action(*args)`` every ``interval`` virtual seconds.

        The periodic tick hook behind background machinery: metric
        scrape rounds, heartbeats and escrow checkpoints ride this.
        Daemon by default — a repeating foreground event would make
        ``run()`` non-terminating; pass ``daemon=False`` only together
        with ``run(until=...)``.
        """
        return RepeatingEvent(self, interval, action, args, priority, daemon)

    def _note_pop(self, event: EventHandle) -> None:
        if not event.daemon:
            self._nondaemon_queued -= 1
        # Once popped the event is out of the foreground count; a late
        # cancel() (e.g. a timeout cleaned up after it already fired)
        # must not reconcile a second time.
        event._kernel = None

    # -- execution ----------------------------------------------------------

    def _pop(self, event: EventHandle) -> None:
        """Dequeue the head ``event`` and account it as fired."""
        heapq.heappop(self._queue)
        self._note_pop(event)
        self.clock.set(event.time)
        self.events_processed += 1

    def _due(self, until: float | None) -> EventHandle | None:
        """The event :meth:`run` fires next, or None when it must stop.

        Cancelled heads are dropped on the way.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head._cancelled:
                heapq.heappop(queue)
                self._note_pop(head)
                continue
            if until is not None and head.time > until:
                return None
            if until is None and self._nondaemon_queued == 0:
                # Only daemon events (periodic telemetry ticks) remain
                # and no time bound was given: the world's real work has
                # drained.  With an explicit ``until`` the daemon ticks
                # keep firing up to the bound.
                return None
            return head
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty.

        Fires exactly one event: a resumed thread always yields back here,
        never onward to the next thread (see :meth:`_hand_off`).
        """
        while self._queue:
            event = self._queue[0]
            if event._cancelled:
                heapq.heappop(self._queue)
                self._note_pop(event)
                continue
            self._pop(event)
            event._action(*event._args)
            self._raise_thread_failures()
            return True
        return False

    def run(self, until: float | None = None, *, detect_deadlock: bool = True) -> float:
        """Run events until the queue empties (or virtual time ``until``).

        Raises :class:`SimulationError` if, at quiescence, simulated
        threads are still blocked with nothing left that could wake them
        (a deadlock), unless ``detect_deadlock=False``.

        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("kernel.run() re-entered")
        self._running = True
        self._until = until
        try:
            while (head := self._due(until)) is not None:
                self._pop(head)
                head._action(*head._args)
                self._raise_thread_failures()
            if until is not None and self.now() < until:
                self.clock.set(until)
        finally:
            self._running = False
        exhausted = not self._queue or (
            until is None and self._nondaemon_queued == 0
        )
        if detect_deadlock and exhausted:
            blocked = [t for t in self._threads if t.is_blocked]
            if blocked:
                names = ", ".join(t.name for t in blocked)
                raise SimulationError(f"deadlock: threads still blocked: {names}")
        return self.now()

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    # -- simulated-thread support (used by repro.sim.threads) ---------------

    def current_thread(self) -> "SimThread | None":
        """The simulated thread currently holding the baton, if any."""
        return self._current

    def _register_thread(self, thread: "SimThread") -> None:
        self._threads[thread] = None

    def _retire_thread(self, thread: "SimThread") -> None:
        del self._threads[thread]

    def resume(self, thread: "SimThread", delay: float = 0.0) -> EventHandle:
        """Schedule ``thread`` to resume ``delay`` seconds from now."""
        return self.schedule(delay, self._transfer, thread)

    def _transfer_to(self, thread: "SimThread") -> None:
        """Event action: hand the baton to ``thread`` until one yields back.

        Resumes may chain from thread to thread (:meth:`_hand_off`); this
        returns once the chain reaches an event only run() may fire.
        """
        previous = self._current
        self._current = thread
        thread._resume.release()
        self._baton.acquire()
        self._current = previous

    def _hand_off(self, thread: "SimThread") -> bool:
        """Pass the baton on from ``thread``, which is yielding.

        When the event :meth:`run` would fire next is a resume, ``thread``
        fires it itself, exactly as a run() iteration would, and wakes
        the target directly: one OS switch instead of a round trip
        through run()'s caller.  Any other event — a plain action, a
        daemon tick — goes back to run()'s caller, and so do anything
        past ``until``, a pending thread failure and a yield outside
        run(), e.g. under :meth:`step`.  So every action but a resume
        runs on run()'s calling OS thread, where thread-group identity
        and span stacks are OS-thread-local state.

        Returns True when the next resume is ``thread``'s own: it keeps
        the baton and runs on.  Otherwise the baton has moved and the
        caller must not touch shared state again until it is resumed.
        """
        if self._running and not self._thread_failures:
            head = self._due(self._until)
            if head is not None and head._action is self._transfer:
                self._pop(head)
                target = head._args[0]
                self._current = target
                if target is thread:
                    return True
                target._resume.release()
                return False
        self._baton.release()
        return False

    def _note_thread_failure(self, thread: "SimThread") -> None:
        self._thread_failures.append(thread)

    def _raise_thread_failures(self) -> None:
        if not self._thread_failures:
            return
        thread = self._thread_failures.pop(0)
        exc = thread.exception
        assert exc is not None
        raise SimulationError(
            f"unhandled exception in simulated thread {thread.name!r}: {exc!r}"
        ) from exc

    def threads(self) -> list["SimThread"]:
        """The simulated threads of this kernel that have not finished."""
        return list(self._threads)
