"""Pooled carriers: simulated threads run on reused OS threads.

A carrier runs one simulated thread from start to finish and then parks
for the next.  Domain identification and tracing keep state local to the
OS thread, so nothing a finished (or killed) thread left behind may reach
the next thread on the same carrier, and a kernel holds only the threads
that have not finished.  The churn test draws its schedule from
``REPRO_STRESS_SEED`` (default 1000), so the CI stress job sweeps it.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import threading
import weakref
from contextlib import ExitStack

import pytest

from repro.core.domain_db import DomainDatabase
from repro.errors import PrivilegeError, SimulationError
from repro.obs import runtime
from repro.obs.trace import Tracer
from repro.sandbox.threadgroup import (
    ThreadGroup,
    _stack,
    current_group,
    enter_group,
    wrap_in_group,
)
from repro.sim import threads as sim_threads
from repro.sim.kernel import Kernel
from repro.sim.sync import SimEvent
from repro.sim.threads import MAX_IDLE_CARRIERS, SimThread, ThreadState

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))


@pytest.fixture(autouse=True)
def _uninstall_observability():
    yield
    runtime.uninstall()


def test_sequential_threads_reuse_a_few_carriers():
    kernel = Kernel()
    carriers: list[threading.Thread] = []

    def child():
        carriers.append(threading.current_thread())

    def parent():
        for i in range(200):
            SimThread(kernel, child, f"child-{i}").start().join()

    SimThread(kernel, parent, "parent").start()
    kernel.run()
    assert len(carriers) == 200
    # Each child finishes, and its carrier parks, before the next starts.
    assert len(set(carriers)) <= 2
    assert threading.current_thread() not in carriers


def test_finished_threads_are_forgotten_and_their_targets_released():
    kernel = Kernel()

    class Target:
        def __call__(self) -> int:
            kernel.current_thread().sleep(1.0)
            return 7

    target = Target()
    ref = weakref.ref(target)
    thread = SimThread(kernel, target, "t").start()
    del target
    assert kernel.threads() == [thread]
    kernel.run()
    assert thread.state is ThreadState.DONE and thread.result == 7
    assert kernel.threads() == []
    gc.collect()
    assert ref() is None


def test_deadlock_check_sees_only_unfinished_threads():
    kernel = Kernel()
    for i in range(5):
        SimThread(kernel, lambda: None, f"done-{i}").start()
    kernel.run()
    never = SimEvent(kernel)
    stuck = SimThread(kernel, never.wait, "stuck", on_error="store").start()
    with pytest.raises(SimulationError, match="threads still blocked: stuck$"):
        kernel.run()
    assert kernel.threads() == [stuck]
    stuck.kill()
    kernel.run()
    assert stuck.state is ThreadState.KILLED and kernel.threads() == []


@pytest.mark.parametrize("inside", ["group", "span", "privileged"])
def test_a_killed_thread_leaves_its_carrier_clean(inside: str):
    kernel = Kernel()
    tracer = Tracer(kernel.clock)
    runtime.install(tracer=tracer)
    db = DomainDatabase(kernel.clock)
    seen: dict[str, object] = {}

    def victim():
        seen["victim_carrier"] = threading.current_thread()
        with ExitStack() as scope:
            if inside == "group":
                scope.enter_context(enter_group(ThreadGroup("victim-group")))
            elif inside == "span":
                scope.enter_context(runtime.span("victim.work"))
            else:
                scope.enter_context(db.privileged())
                db._check_write()  # writes are allowed in here
            kernel.current_thread().sleep(10.0)

    next_group = ThreadGroup("next-group")

    def successor():
        seen["carrier"] = threading.current_thread()
        seen["group"] = current_group()
        seen["span"] = tracer.current_span()
        with pytest.raises(PrivilegeError):
            db.add_charge("anyone", 1.0)
        seen["refused"] = True

    victim_thread = SimThread(kernel, victim, "victim", on_error="store").start()
    successor_thread = SimThread(
        kernel, wrap_in_group(next_group, successor), "successor"
    )
    kernel.schedule(1.0, victim_thread.kill)
    kernel.schedule(2.0, successor_thread.start)
    kernel.run()
    assert victim_thread.state is ThreadState.KILLED
    assert successor_thread.state is ThreadState.DONE
    assert seen["carrier"] is seen["victim_carrier"]
    assert seen["group"] is next_group
    assert seen["span"] is None
    assert seen["refused"] is True
    assert tracer.open_spans() == []


def test_privileged_depth_is_scoped_by_its_with_block():
    kernel = Kernel()
    db = DomainDatabase(kernel.clock)
    outcomes: list[str] = []

    def body():
        with db.privileged():
            with db.privileged():
                pass
            db._check_write()
            outcomes.append("inside")
        try:
            db._check_write()
        except PrivilegeError:
            outcomes.append("outside refused")

    SimThread(kernel, body, "t").start()
    kernel.run()
    assert outcomes == ["inside", "outside refused"]


def test_a_dirty_carrier_refuses_its_next_thread_and_retires():
    kernel = Kernel()
    seen: dict[str, object] = {}
    ran: list[str] = []

    def leaker():
        seen["carrier"] = threading.current_thread()
        _stack().append(ThreadGroup("leaked"))  # pushed, never popped

    def next_thread():
        ran.append(current_group().name if current_group() else "none")

    first = SimThread(kernel, leaker, "leaker").start()
    refused = SimThread(kernel, next_thread, "refused", on_error="store")
    kernel.schedule(1.0, refused.start)
    kernel.run()
    assert first.state is ThreadState.DONE
    assert refused.state is ThreadState.FAILED
    assert isinstance(refused.exception, SimulationError)
    assert "thread-group stack" in str(refused.exception)
    assert ran == []
    # The dirty carrier exits instead of parking again.
    carrier = seen["carrier"]
    carrier.join(timeout=10.0)
    assert not carrier.is_alive()
    # The next thread gets a clean carrier.
    later = SimThread(kernel, next_thread, "later").start()
    kernel.run()
    assert later.state is ThreadState.DONE and ran == ["none"]


def test_a_carrier_with_an_open_span_refuses_an_unmanaged_thread():
    kernel = Kernel()
    tracer = Tracer(kernel.clock)
    runtime.install(tracer=tracer)

    def leaker():
        tracer.start_span("never.ended")

    SimThread(kernel, leaker, "leaker").start()
    refused = SimThread(kernel, lambda: None, "refused")
    kernel.schedule(1.0, refused.start)
    with pytest.raises(SimulationError, match="unhandled exception") as info:
        kernel.run()
    assert "open span" in str(info.value.__cause__)
    assert refused.state is ThreadState.FAILED


def test_the_idle_pool_is_bounded():
    kernel = Kernel()
    n = MAX_IDLE_CARRIERS + 8
    for i in range(n):
        SimThread(kernel, lambda: kernel.current_thread().sleep(1.0), f"t{i}").start()
    kernel.run()
    assert kernel.threads() == []
    assert len(sim_threads._idle) <= MAX_IDLE_CARRIERS


def churn(seed: int) -> tuple[int, list[tuple[float, str, str]]]:
    """60 threads, each in its own group, sleeping inside a nested group
    and a span; a third are killed part-way.  Every wake-up logs the
    group and span it sees."""
    rng = random.Random(seed)
    kernel = Kernel()
    tracer = Tracer(kernel.clock)
    runtime.install(tracer=tracer)
    log: list[tuple[float, str, str]] = []

    def body(name: str, pauses: list[float]):
        def run():
            me = kernel.current_thread()
            with enter_group(ThreadGroup(f"{name}/inner")):
                with runtime.span(f"{name}.work"):
                    for pause in pauses:
                        me.sleep(pause)
                        span = tracer.current_span()
                        log.append((kernel.now(), current_group().name, span.name))
        return run

    threads = []
    for i in range(60):
        name = f"t{i}"
        pauses = [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 4))]
        thread = SimThread(
            kernel, wrap_in_group(ThreadGroup(name), body(name, pauses)), name,
            on_error="store",
        )
        kernel.schedule(rng.uniform(0.0, 5.0), thread.start)
        if i % 3 == 0:
            kernel.schedule(rng.uniform(0.0, 8.0), thread.kill)
        threads.append(thread)
    kernel.run()
    assert kernel.threads() == []
    assert all(t.finished and t.exception is None for t in threads)
    assert tracer.open_spans() == []
    runtime.uninstall()
    return kernel.events_processed, log


def test_seeded_churn_keeps_every_thread_in_its_own_group():
    events, log = churn(STRESS_SEED)
    for _time, group, span in log:
        name = group.split("/")[0]
        assert group == f"{name}/inner" and span == f"{name}.work"
    assert churn(STRESS_SEED) == (events, log)


def test_kernels_on_several_os_threads_share_the_pool():
    """Four kernels, each driven by its own OS thread, start and finish
    threads concurrently at a 1 µs switch interval: every simulated
    thread runs exactly once and the pool ends with distinct carriers."""
    results: dict[int, list[int]] = {}
    errors: list[BaseException] = []

    def world(k: int) -> None:
        try:
            kernel = Kernel()
            done: list[int] = []

            def body(i: int):
                def run():
                    kernel.current_thread().sleep(0.1 * (i % 3))
                    done.append(i)
                return run

            for i in range(150):
                kernel.schedule(0.01 * i, SimThread(kernel, body(i), f"w{k}-{i}").start)
            kernel.run()
            assert kernel.threads() == []
            results[k] = sorted(done)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drivers = [threading.Thread(target=world, args=(k,)) for k in range(4)]
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(driver.is_alive() for driver in drivers)
    assert errors == []
    assert results == {k: list(range(150)) for k in range(4)}
    idle = list(sim_threads._idle)
    assert len(idle) <= MAX_IDLE_CARRIERS
    assert len({id(c) for c in idle}) == len(idle)
