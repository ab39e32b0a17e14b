"""R3 — per-hop cost of tamper-evident integrity on multi-hop tours.

Every departure seals a hash-chained appraisal link (sign) and every
admission verifies the whole carried chain (hash + signature checks), so
the price grows with tour length.  This experiment runs waves of 5-hop
round trips with the integrity layer on (the default) and off
(``appraisal=False``) and reports the relative wall-clock overhead per
tour and per hop.  Target: <10% end-to-end on 5-hop tours.
"""

from __future__ import annotations

import time

from repro.agents.agent import register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.credentials.rights import Rights
from repro.server.testbed import Testbed

from _common import write_table

SEED = 7300
HOPS = 5  # stops per tour (incl. the homecoming hop)
WAVE = 6  # concurrent tours per measured wave
ROUNDS = 5  # measured waves per configuration


@register_trusted_agent_class
class R3Tourist(ItineraryAgent):
    def visit(self, stop):
        pass


def run_wave(*, appraisal: bool, seed: int):
    """``WAVE`` 5-hop round trips across ``HOPS`` servers; one wave."""
    bed = Testbed(
        HOPS,
        seed=seed,
        server_kwargs={"appraisal": appraisal},
    )
    home = bed.home
    stops = [s.name for s in bed.servers[1:]] + [home.name]
    for i in range(WAVE):
        agent = R3Tourist()
        agent.itinerary = Itinerary.tour(list(stops))
        bed.launch(agent, Rights.all(), agent_local=f"r3-{i}",
                   register_name=False)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    bed.run(detect_deadlock=False)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    completed = sum(
        1
        for s in bed.servers
        for r in s.domain_db._records.values()  # noqa: SLF001 - bench introspection
        if r.status == "completed"
    )
    sealed = (
        sum(s.integrity.stats["links_sealed"] for s in bed.servers)
        if appraisal
        else 0
    )
    return {"wall": wall, "cpu": cpu, "completed": completed, "sealed": sealed}


def measure(*, appraisal: bool):
    """Best-of-``ROUNDS`` waves.

    The kernel hops between agent threads, so wall clock carries
    scheduler noise an order of magnitude above the effect being
    measured; process CPU time is the stable, honest cost metric and the
    min over rounds discards GC/interference outliers.
    """
    runs = [
        run_wave(appraisal=appraisal, seed=SEED + i) for i in range(ROUNDS)
    ]
    best = min(runs, key=lambda m: m["cpu"])
    assert all(m["completed"] == WAVE for m in runs)
    return best


def test_wave_integrity_on(benchmark):
    benchmark.pedantic(lambda: run_wave(appraisal=True, seed=SEED),
                       rounds=1, iterations=1)


def test_wave_integrity_off(benchmark):
    benchmark.pedantic(lambda: run_wave(appraisal=False, seed=SEED),
                       rounds=1, iterations=1)


def test_table_r3(benchmark):
    def build():
        off = measure(appraisal=False)
        on = measure(appraisal=True)
        overhead = (on["cpu"] / max(off["cpu"], 1e-9) - 1.0) * 100.0
        hops = HOPS * WAVE  # sealed departures per wave
        rows = [
            [
                "appraisal off", f"{off['completed']}/{WAVE}", 0,
                f"{off['cpu'] * 1e3:.0f}ms",
                f"{off['cpu'] * 1e3 / hops:.2f}ms",
                f"{off['wall'] * 1e3:.0f}ms", "",
            ],
            [
                "appraisal on", f"{on['completed']}/{WAVE}", on["sealed"],
                f"{on['cpu'] * 1e3:.0f}ms",
                f"{on['cpu'] * 1e3 / hops:.2f}ms",
                f"{on['wall'] * 1e3:.0f}ms",
                f"{overhead:+.1f}%",
            ],
        ]
        return rows, overhead

    rows, overhead = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "R3",
        f"per-hop appraisal overhead, {WAVE} concurrent {HOPS}-hop tours",
        ["integrity", "completed", "links sealed", "cpu/wave", "cpu/hop",
         "wall/wave", "overhead"],
        rows,
        seed=SEED,
        headline=(f"appraisal CPU overhead, {HOPS}-hop tours", round(overhead, 1), "%"),
        notes=(
            "each hop pays one seal (origin signs the chained link with"
            " one RSA-CRT private op) and one verify (chain walk +"
            " signature/certificate checks, memoized where value-stable);"
            " the homecoming hop adds the itinerary-commitment MAC."
            f"  Overhead is CPU-time, best-of-{ROUNDS} waves, appraisal"
            " on vs off on identical tours.  Target: <10% end-to-end;"
            " the floor is the per-hop seal signature (~0.4ms of pure-"
            "Python RSA-512)."
        ),
    )
