"""Direct thread-to-thread baton hand-off.

A yielding simulated thread fires the next queued event itself when that
event only resumes another simulated thread, instead of waking the OS
thread that called ``run()``.  The event order, ``events_processed`` and
every virtual time must be exactly what ``run()`` alone would produce,
and every other event action must still run on ``run()``'s caller.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import SimulationError
from repro.sandbox.threadgroup import ThreadGroup, current_group, enter_group
from repro.sim.kernel import Kernel
from repro.sim.sync import BlockingQueue
from repro.sim.threads import Interrupted, SimThread, ThreadState


def count_kernel_side_resumes(kernel: Kernel) -> list[object]:
    """Record each resume fired by run()'s caller rather than chained.

    ``Kernel.resume`` schedules ``kernel._transfer`` and the hand-off
    recognises resumes by identity with it, so a counting stand-in is
    still chained like the real one; only the resumes fired on run()'s
    caller reach it.
    """
    calls: list[object] = []
    real = kernel._transfer

    def transfer(thread):
        calls.append(thread)
        real(thread)

    kernel._transfer = transfer
    return calls


def sleeper(kernel: Kernel, pauses: list[float], log: list[float]):
    def body():
        me = kernel.current_thread()
        for pause in pauses:
            me.sleep(pause)
            log.append(kernel.now())

    return body


def test_lone_sleeper_chains_every_resume_after_the_first():
    kernel = Kernel()
    kernel_side = count_kernel_side_resumes(kernel)
    log: list[float] = []
    n = 25
    t = SimThread(kernel, sleeper(kernel, [0.5] * n, log), "lone").start()
    kernel.run()
    assert t.state is ThreadState.DONE
    assert kernel.events_processed == n + 1
    assert kernel.now() == 0.5 * n
    assert log == [0.5 * (i + 1) for i in range(n)]
    # The start came from run(); each wake-up was the sleeper's own next
    # resume, kept without any OS switch.
    assert kernel_side == [t]
    assert kernel.current_thread() is None


def test_two_threads_ping_pong_without_the_kernel_thread():
    kernel = Kernel()
    kernel_side = count_kernel_side_resumes(kernel)
    log: list[str] = []

    def make(name: str):
        def body():
            for _ in range(4):
                log.append(f"{name}@{kernel.now():g}")
                kernel.current_thread().sleep(1.0)

        return body

    a = SimThread(kernel, make("a"), "a").start()
    SimThread(kernel, make("b"), "b").start(delay=0.5)
    kernel.run()
    assert log == [
        "a@0", "b@0.5", "a@1", "b@1.5", "a@2", "b@2.5", "a@3", "b@3.5",
    ]
    assert kernel.events_processed == 10
    assert kernel_side == [a]


def test_run_until_stops_a_chain_and_a_later_run_resumes_it():
    kernel = Kernel()
    log: list[float] = []
    t = SimThread(kernel, sleeper(kernel, [1.0] * 5, log), "sleeper").start()
    assert kernel.run(until=2.5) == 2.5
    assert log == [1.0, 2.0]
    assert t.state is ThreadState.BLOCKED
    assert kernel.events_processed == 3
    assert kernel.current_thread() is None
    kernel.run()
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert t.state is ThreadState.DONE
    assert kernel.events_processed == 6


def test_cancelled_resume_at_the_head_is_skipped():
    kernel = Kernel()
    log: list[str] = []

    def b_body():
        try:
            kernel.current_thread().sleep(1.0)  # wake-up at t=1, cancelled
        except Interrupted:
            log.append(f"b interrupted@{kernel.now():g}")
        kernel.current_thread().sleep(2.0)
        log.append(f"b@{kernel.now():g}")

    b = SimThread(kernel, b_body, "b")

    def a_body():
        me = kernel.current_thread()
        me.sleep(0.5)
        b.interrupt()
        # Yielding here chains to b's new resume at 0.5; b then yields
        # with its cancelled t=1 wake-up at the head of the queue.
        me.sleep(1.0)
        log.append(f"a@{kernel.now():g}")

    SimThread(kernel, a_body, "a").start()
    b.start()
    kernel.run()
    assert log == ["b interrupted@0.5", "a@1.5", "b@2.5"]
    # a start, b start, a@0.5, b@0.5, a@1.5, b@2.5: the cancelled wake-up
    # is not counted.
    assert kernel.events_processed == 6
    assert kernel.now() == 2.5


def test_kill_of_a_thread_whose_resume_is_queued_mid_chain():
    kernel = Kernel()
    progress: list[float] = []
    victim = SimThread(kernel, sleeper(kernel, [1.0] * 10, progress), "victim")

    def killer():
        me = kernel.current_thread()
        me.sleep(2.5)  # victim's t=3 wake-up is queued now
        victim.kill()
        me.sleep(1.0)

    victim.start()
    SimThread(kernel, killer, "killer").start()
    kernel.run()
    assert victim.state is ThreadState.KILLED
    assert progress == [1.0, 2.0]
    # The cancelled t=3 wake-up never fired; the killer's last sleep
    # sets the end time.
    assert kernel.now() == 3.5


def test_unhandled_failure_stops_the_chain_at_the_same_time():
    kernel = Kernel()
    late: list[str] = []

    def bad():
        kernel.current_thread().sleep(1.0)
        raise RuntimeError("boom")

    def bystander():
        kernel.current_thread().sleep(1.0)  # same tick, after bad
        late.append("bystander")

    SimThread(kernel, bad, "bad").start()
    SimThread(kernel, bystander, "bystander").start()
    kernel.schedule(1.0, late.append, "action", priority=1)  # after both
    with pytest.raises(SimulationError, match="boom"):
        kernel.run()
    assert kernel.now() == 1.0
    assert late == []
    # bad start, bystander start, bad's wake-up -- nothing after it.
    assert kernel.events_processed == 3


def test_plain_action_between_resumes_runs_on_the_run_caller():
    kernel = Kernel()
    caller = threading.get_ident()
    group = ThreadGroup("caller")
    seen: dict[str, object] = {}
    log: list[str] = []

    def worker():
        me = kernel.current_thread()
        seen["worker"] = (threading.get_ident(), current_group())
        me.sleep(1.0)
        log.append(f"worker@{kernel.now():g}")
        me.sleep(1.0)
        log.append(f"worker@{kernel.now():g}")

    def action():
        seen["action"] = (threading.get_ident(), current_group())
        log.append(f"action@{kernel.now():g}")

    SimThread(kernel, worker, "worker").start()
    kernel.schedule(1.5, action)
    with enter_group(group):
        kernel.run()
    assert log == ["worker@1", "action@1.5", "worker@2"]
    assert seen["action"] == (caller, group)
    worker_ident, worker_group = seen["worker"]
    assert worker_ident != caller
    assert worker_group is None


def test_many_threads_under_a_tiny_switch_interval_stay_serialised():
    """More threads than cores, the interpreter switching every µs.

    The baton must keep exactly one thread running: an unguarded
    read-modify-write between yields loses no update, and two runs give
    the same log and event count.
    """

    def scenario() -> tuple[list[str], int, int]:
        kernel = Kernel()
        queue = BlockingQueue(kernel, capacity=2)
        shared = [0]
        log: list[str] = []

        def worker(i: int):
            def body():
                me = kernel.current_thread()
                for step in range(15):
                    value = shared[0]
                    for _ in range(200):  # room for a GIL switch mid-update
                        pass
                    shared[0] = value + 1
                    if i % 2:
                        queue.put((i, step))
                    else:
                        log.append(f"{i}.{step}@{kernel.now():g}={queue.get()}")
                    me.sleep(0.001 * ((i + step) % 3))

            return body

        for i in range(16):
            SimThread(kernel, worker(i), f"w{i}").start()
        kernel.run()
        return log, kernel.events_processed, shared[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = scenario()
        second = scenario()
    finally:
        sys.setswitchinterval(interval)
    assert first == second
    assert first[2] == 16 * 15


def test_step_counts_the_events_run_counts():
    def build() -> Kernel:
        kernel = Kernel()
        log: list[float] = []
        SimThread(kernel, sleeper(kernel, [1.0, 0.5, 2.0], log), "x").start()
        SimThread(kernel, sleeper(kernel, [0.25, 3.0], log), "y").start()
        kernel.schedule(1.0, log.append, -1.0)
        kernel.schedule(2.0, log.append, -2.0).cancel()
        return kernel

    by_run = build()
    by_run.run()
    by_step = build()
    while by_step.step():
        pass
    assert by_step.events_processed == by_run.events_processed == 8
    assert by_step.now() == by_run.now() == 3.5


def test_step_never_chains():
    kernel = Kernel()
    log: list[float] = []
    t = SimThread(kernel, sleeper(kernel, [1.0] * 3, log), "sleeper").start()
    fired_at: list[float] = []
    while kernel.step():
        fired_at.append(kernel.now())
        assert kernel.events_processed == len(fired_at)
        assert kernel.current_thread() is None
    # One resume per step: the start, then each wake-up on its own.
    assert fired_at == [0.0, 1.0, 2.0, 3.0]
    assert t.state is ThreadState.DONE
