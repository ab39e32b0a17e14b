"""R2 — goodput under overload, with and without supervision.

The supervision layer (leases, bulkheads, watchdog kills) exists so that
misbehaving agents degrade a corner of a server instead of wedging all
of it.  This experiment quantifies that claim on a shared slot-pool
resource:

- a wave of well-behaved agents runs short ``lookup`` calls while a
  pack of runaways hammers the same resource with slot-hogging
  ``audit_scan`` calls;
- **unsupervised**, every call queues FIFO on the pool, so lookups
  starve behind 30-second scans;
- **supervised**, the bulkhead sheds over-cap calls fast (agents retry
  after a short backoff) and the watchdog strikes out each runaway after
  three blown deadlines, killing it and revoking its grants — after
  which the well-behaved wave runs at full speed.

Goodput is the fraction of lookups completed inside a fixed virtual
horizon.  The last row prices the supervision fast path on a calm
workload (no runaways): the guard's begin/finish bookkeeping should be
within noise of the unsupervised proxy ("you only pay when it hurts").
"""

from __future__ import annotations

import time

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.core.access_protocol import AccessProtocol
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.core.resource import ResourceImpl, export
from repro.credentials.rights import Rights
from repro.errors import SupervisionError
from repro.naming.urn import URN
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed
from repro.sim.sync import Semaphore

from _common import write_table

SEED = 7200
CATALOG = "urn:resource:site0.net/catalog"
OWNER = URN.parse("urn:principal:site0.net/o")

SLOTS = 4           # catalog worker pool width (= supervised bulkhead cap)
GOOD = 6            # well-behaved agents
BAD = 6             # runaway agents
LOOKUPS = 15        # lookups each good agent wants
SCANS = 5           # scans each runaway attempts (bounds the baseline run)
LOOKUP_HOLD = 0.1   # virtual seconds a lookup occupies a slot
SCAN_HOLD = 30.0    # virtual seconds a scan occupies a slot
HORIZON = 120.0     # goodput window (virtual seconds)

RESULTS: list[float] = []  # completion times of good lookups, per run


class Catalog(ResourceImpl, AccessProtocol):
    """A query service with a fixed worker pool.

    ``lookup`` holds a pool slot briefly; ``audit_scan`` holds one for
    :data:`SCAN_HOLD` virtual seconds.  Unsupervised callers *queue* on
    the pool — which is exactly how a few slow calls starve everyone.
    """

    def __init__(self, name: URN, owner: URN, policy: SecurityPolicy,
                 kernel) -> None:
        ResourceImpl.__init__(self, name, owner)
        self.init_access_protocol(policy)
        self._kernel = kernel
        self._pool = Semaphore(kernel, SLOTS)

    def _occupy(self, seconds: float) -> None:
        self._pool.acquire()
        try:
            self._kernel.current_thread().sleep(seconds)
        finally:
            self._pool.release()

    @export
    def lookup(self, key: str) -> str:
        self._occupy(LOOKUP_HOLD)
        return f"value:{key}"

    @export
    def audit_scan(self) -> int:
        self._occupy(SCAN_HOLD)
        return SLOTS


@register_trusted_agent_class
class R2Good(Agent):
    def run(self):
        catalog = self.host.get_resource(CATALOG)
        for i in range(LOOKUPS):
            for _ in range(40):  # retry sheds with a short backoff
                try:
                    catalog.lookup(f"k{i}")
                except SupervisionError:
                    self.host.sleep(1.5)
                else:
                    RESULTS.append(self.host.now())
                    break
            self.host.sleep(1.0)
        self.complete()


@register_trusted_agent_class
class R2Runaway(Agent):
    def run(self):
        catalog = self.host.get_resource(CATALOG)
        done = 0
        while done < SCANS:  # hammers until struck out by the watchdog
            try:
                catalog.audit_scan()
            except SupervisionError:
                self.host.sleep(0.5)
            else:
                done += 1
        self.complete()


def run_wave(supervised: bool, runaways: int = BAD, seed: int = SEED,
             *, servers: int = 1, self_healing: bool = False):
    # ``servers``/``self_healing`` let R5 reuse this calm workload to
    # price the heartbeat+checkpoint plane on a cluster-sized bed; the
    # R2 rows themselves always run the single-server default.
    supervision = None
    if supervised:
        supervision = SupervisorConfig(
            invoke_deadline=2.0,
            resource_concurrency=SLOTS,
            quarantine_after=50,  # isolate shedding+kills from quarantine
            runaway_strikes=3,
        )
    bed = Testbed(servers, seed=seed, supervision=supervision,
                  self_healing=self_healing)
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Catalog.*"), confine=False)]
    )
    bed.home.install_resource(Catalog(URN.parse(CATALOG), OWNER, policy,
                                      bed.kernel))
    RESULTS.clear()
    for i in range(max(GOOD, runaways)):
        if i < GOOD:
            bed.launch(R2Good(), Rights.all(), agent_local=f"good-{i}",
                       register_name=False)
        if i < runaways:
            bed.launch(R2Runaway(), Rights.all(), agent_local=f"bad-{i}",
                       register_name=False)
    wall_start = time.perf_counter()
    bed.run(detect_deadlock=False)
    wall = time.perf_counter() - wall_start
    supervisor = bed.home.supervisor
    return {
        "goodput": sum(1 for t in RESULTS if t <= HORIZON),
        "completed": len(RESULTS),
        "shed": (supervisor.stats["invocations_shed_overload"]
                 if supervisor else 0),
        "killed": (supervisor.stats["agents_killed_runaway"]
                   if supervisor else 0),
        "virtual_end": bed.clock.now(),
        "wall": wall,
        "events": bed.kernel.events_processed,
        "heartbeats": sum(
            s.membership.stats["heartbeats_sent"]
            for s in bed.servers
            if getattr(s, "membership", None) is not None
        ),
    }


def test_overload_unsupervised(benchmark):
    benchmark.pedantic(lambda: run_wave(False), rounds=1, iterations=1)


def test_overload_supervised(benchmark):
    benchmark.pedantic(lambda: run_wave(True), rounds=1, iterations=1)


def test_table_r2(benchmark):
    target = GOOD * LOOKUPS

    def build():
        rows = []
        calm = {}
        for supervised, label in ((False, "unsupervised"),
                                  (True, "supervised")):
            cold = run_wave(supervised)
            warm = run_wave(supervised)
            rows.append([
                label,
                f"{warm['goodput']}/{target}",
                f"{warm['goodput'] / target:.0%}",
                warm["shed"],
                f"{warm['killed']}/{BAD}",
                f"{warm['virtual_end']:.0f}s",
                f"{cold['wall'] * 1e3:.0f}ms",
                f"{warm['wall'] * 1e3:.0f}ms",
            ])
            # Calm workload: no runaways — the fast-path price check.
            calm[supervised] = run_wave(supervised, runaways=0)
        overhead = (
            calm[True]["wall"] / max(calm[False]["wall"], 1e-9) - 1.0
        ) * 100.0
        rows.append([
            "calm-workload overhead (supervised vs not)", "", "", "", "", "",
            "", f"{overhead:+.1f}%",
        ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "R2",
        f"goodput under overload within t<={HORIZON:.0f}s,"
        " supervision on/off",
        ["configuration", "lookups done", "goodput", "shed", "runaways"
         " killed", "virtual end", "wall (cold)", "wall (warm)"],
        rows,
        seed=SEED,
        headline=(
            "supervised lookups done",
            int(next(r[1] for r in rows if r[0] == "supervised").split("/")[0]),
            f"lookups of {GOOD * LOOKUPS}",
        ),
        notes=(
            "unsupervised, every lookup queues FIFO behind 30s audit scans"
            " on the catalog's worker pool and the wave crawls; supervised,"
            " the bulkhead sheds over-cap calls fast (agents back off and"
            " retry) and the watchdog kills each runaway after 3 blown"
            " 2s deadlines, so the well-behaved wave finishes inside the"
            " horizon.  The last row is the supervision layer's wall-clock"
            " price on a calm workload (target: within noise, <5%)."
        ),
    )
