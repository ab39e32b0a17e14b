"""Deterministic discrete-event simulation kernel.

The substrate under the simulated network and the agent servers.  Two
execution styles share one virtual clock and one event queue:

* **callback events** — cheap, used by protocol machinery (message
  delivery, timers);
* **simulated threads** (:class:`~repro.sim.threads.SimThread`) — run on
  pooled carrier OS threads, one at a time under a baton-passing
  discipline, so agent code can be ordinary *blocking* Python (sleep,
  queue get/put, join) while the whole simulation stays deterministic.
  These simulated threads are what Ajanta's
  thread-groups-as-protection-domains (section 5.3) are built from.
"""

from repro.sim.kernel import EventHandle, Kernel
from repro.sim.threads import SimThread, ThreadState
from repro.sim.sync import BlockingQueue, Mutex, Semaphore, SimEvent
from repro.sim.monitor import Counter, Series, Tally, TimeWeighted

__all__ = [
    "Kernel",
    "EventHandle",
    "SimThread",
    "ThreadState",
    "SimEvent",
    "Semaphore",
    "Mutex",
    "BlockingQueue",
    "Counter",
    "Series",
    "Tally",
    "TimeWeighted",
]
