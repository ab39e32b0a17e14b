"""Synchronization primitives for simulated threads.

All wake-ups are scheduled as kernel events, preserving determinism.  All
primitives support interruption: an interrupted thread is removed from the
waiter list before its interrupt fires, so no token or item is lost.
"""

from __future__ import annotations

import collections
from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.threads import SimThread

__all__ = ["SimEvent", "Semaphore", "Mutex", "BlockingQueue"]


def _require_current(kernel: Kernel, op: str) -> SimThread:
    current = kernel.current_thread()
    if current is None:
        raise SimulationError(f"{op} must be called from a simulated thread")
    return current


class SimEvent:
    """A one-shot broadcast event, optionally carrying a payload."""

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._set = False
        self._payload: Any = None
        self._waiters: list[SimThread] = []

    @property
    def is_set(self) -> bool:
        return self._set

    def set(self, payload: Any = None) -> None:
        """Trigger the event, waking all waiters (FIFO)."""
        if self._set:
            return
        self._set = True
        self._payload = payload
        waiters, self._waiters = self._waiters, []
        for thread in waiters:
            self._kernel.resume(thread)

    def wait(self, timeout: float | None = None, expired: Any = None) -> Any:
        """Block until the event is set; returns the payload.

        With a ``timeout``, a kernel timer sets the event to ``expired``
        after ``timeout`` virtual seconds.  The timer is cancelled on
        every exit (set, expired, or the waiter interrupted), so a wait
        leaves no stale timer behind.
        """
        if not self._set:
            current = _require_current(self._kernel, "SimEvent.wait")
            timer = (
                None if timeout is None
                else self._kernel.schedule(timeout, self.set, expired)
            )
            self._waiters.append(current)
            try:
                current._block(self)
            finally:
                if timer is not None:
                    timer.cancel()
        return self._payload

    def _remove_waiter(self, thread: SimThread) -> None:
        if thread in self._waiters:
            self._waiters.remove(thread)


class Semaphore:
    """Counting semaphore with direct hand-off (no barging).

    On release, a waiting thread receives the token directly, so wake-up
    order is strictly FIFO and independent of scheduling accidents.
    """

    def __init__(self, kernel: Kernel, tokens: int = 1) -> None:
        if tokens < 0:
            raise ValueError("token count must be non-negative")
        self._kernel = kernel
        self._tokens = tokens
        self._waiters: collections.deque[SimThread] = collections.deque()

    @property
    def tokens(self) -> int:
        return self._tokens

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        if self._tokens > 0:
            self._tokens -= 1
            return True
        return False

    def acquire(self) -> None:
        if self._tokens > 0:
            self._tokens -= 1
            return
        current = _require_current(self._kernel, "Semaphore.acquire")
        self._waiters.append(current)
        current._block(self)

    def release(self) -> None:
        if self._waiters:
            thread = self._waiters.popleft()
            # Token passes straight to the waiter; count stays 0.
            self._kernel.resume(thread)
        else:
            self._tokens += 1

    def _remove_waiter(self, thread: SimThread) -> None:
        try:
            self._waiters.remove(thread)
        except ValueError:
            pass

    def __enter__(self) -> "Semaphore":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class Mutex(Semaphore):
    """Binary semaphore with ownership checking."""

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel, tokens=1)
        self._owner: SimThread | None = None

    def acquire(self) -> None:
        super().acquire()
        self._owner = self._kernel.current_thread()

    def try_acquire(self) -> bool:
        if super().try_acquire():
            self._owner = self._kernel.current_thread()
            return True
        return False

    def release(self) -> None:
        current = self._kernel.current_thread()
        if self._owner is not current:
            raise SimulationError("mutex released by non-owner")
        # Next owner is determined when its acquire() resumes.
        self._owner = None
        super().release()

    @property
    def owner(self) -> SimThread | None:
        return self._owner


class _GetWaiter:
    """A parked consumer; the producer deposits the item here."""

    __slots__ = ("thread", "item", "filled")

    def __init__(self, thread: SimThread) -> None:
        self.thread = thread
        self.item: Any = None
        self.filled = False


class BlockingQueue:
    """Bounded FIFO queue with blocking ``put``/``get``.

    The semantics of the paper's bounded buffer (Fig. 4): ``put`` blocks
    when full, ``get`` blocks when empty.  Items hand off directly to a
    waiting consumer when one exists.
    """

    def __init__(self, kernel: Kernel, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1 (or None for unbounded)")
        self._kernel = kernel
        self._capacity = capacity
        self._items: collections.deque[Any] = collections.deque()
        self._getters: collections.deque[_GetWaiter] = collections.deque()
        self._putters: collections.deque[tuple[SimThread, Any]] = collections.deque()

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def full(self) -> bool:
        return self._capacity is not None and len(self._items) >= self._capacity

    # -- producing ---------------------------------------------------------

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the queue is full."""
        if self._getters:
            waiter = self._getters.popleft()
            waiter.item = item
            waiter.filled = True
            self._kernel.resume(waiter.thread)
            return True
        if self.full:
            return False
        self._items.append(item)
        return True

    def put(self, item: Any) -> None:
        """Blocking put."""
        if self.try_put(item):
            return
        current = _require_current(self._kernel, "BlockingQueue.put")
        self._putters.append((current, item))
        current._block(self)

    # -- consuming ---------------------------------------------------------

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        if self._putters:
            # capacity reached with consumers absent: take straight
            # from the oldest blocked producer.
            thread, item = self._putters.popleft()
            self._kernel.resume(thread)
            return True, item
        return False, None

    def get(self) -> Any:
        """Blocking get."""
        ok, item = self.try_get()
        if ok:
            return item
        current = _require_current(self._kernel, "BlockingQueue.get")
        waiter = _GetWaiter(current)
        self._getters.append(waiter)
        current._block(_QueueGetTarget(self, waiter))
        if not waiter.filled:
            raise SimulationError("queue get resumed without an item")
        return waiter.item

    def _admit_putter(self) -> None:
        """A slot opened up: move the oldest blocked producer's item in."""
        if self._putters and not self.full:
            thread, item = self._putters.popleft()
            self._items.append(item)
            self._kernel.resume(thread)

    # -- interruption support -------------------------------------------------

    def _remove_waiter(self, thread: SimThread) -> None:
        for i, (t, _item) in enumerate(self._putters):
            if t is thread:
                del self._putters[i]
                return


class _QueueGetTarget:
    """Wait target for a parked consumer."""

    __slots__ = ("_queue", "_waiter")

    def __init__(self, queue: BlockingQueue, waiter: _GetWaiter) -> None:
        self._queue = queue
        self._waiter = waiter

    def _remove_waiter(self, thread: SimThread) -> None:
        try:
            self._queue._getters.remove(self._waiter)
        except ValueError:
            pass
