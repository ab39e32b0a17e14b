"""R1 — transfer goodput and latency under loss, with and without retry.

The exactly-once machinery (bounded retries + receiver dedup) exists to
keep agent handoffs working over a lossy internet.  This experiment
quantifies it:

- goodput (delivered / launched) and mean delivery latency (virtual
  seconds) for a wave of transfers at 0–30% per-frame loss, comparing
  the single-shot protocol (attempts=1, the pre-retry behaviour) against
  the retrying one;
- the wall-clock overhead the retry/journal/dedup path adds when the
  network is perfect — the "you only pay when it hurts" check.
"""

from __future__ import annotations

import time

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

from _common import write_table

SEED = 7100
WAVE = 8  # agents per measured wave


@register_trusted_agent_class
class R1Hopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest and self.host.server_name() != self.dest:
            self.go(self.dest, "run")
        self.complete()


def run_wave(loss: float, attempts: int, n: int = WAVE, seed: int = SEED):
    """Launch ``n`` one-hop agents under ``loss``; return measurements."""
    bed = Testbed(
        2,
        seed=seed,
        loss_rate=loss,
        server_kwargs={
            "transfer_timeout": 10.0,
            "transfer_retry": RetryPolicy(attempts=attempts, base_delay=1.0,
                                          jitter=0.25),
        },
    )
    home, dest = bed.home, bed.servers[1]
    for i in range(n):
        agent = R1Hopper()
        agent.dest = dest.name
        bed.launch(agent, Rights.all(), agent_local=f"r1-{i}",
                   register_name=False)
    wall_start = time.perf_counter()
    bed.run(detect_deadlock=False)
    wall = time.perf_counter() - wall_start
    # Mean delivery latency over the agents that made it (launches at t=0,
    # so each arrival timestamp IS that agent's transfer latency).
    arrived = [
        r.arrived_at
        for r in dest.domain_db._records.values()  # noqa: SLF001 - bench introspection
    ]
    return {
        "delivered": dest.stats["agents_hosted"],
        "failed": home.stats["transfers_failed"],
        "retries": home.stats["transfer_retries"],
        "suppressed": dest.stats["transfers_duplicate_suppressed"],
        "mean_latency": sum(arrived) / len(arrived) if arrived else float("nan"),
        "virtual_end": bed.clock.now(),
        "wall": wall,
    }


def test_wave_lossless_with_retry(benchmark):
    benchmark.pedantic(lambda: run_wave(0.0, 4), rounds=1, iterations=1)


def test_wave_lossy_with_retry(benchmark):
    benchmark.pedantic(lambda: run_wave(0.2, 4), rounds=1, iterations=1)


def test_table_r1(benchmark):
    def build():
        rows = []
        lossless = {}
        for attempts, label in ((1, "single-shot"), (4, "retry x4")):
            for loss in (0.0, 0.1, 0.2, 0.3):
                m = run_wave(loss, attempts)
                if loss == 0.0:
                    lossless[attempts] = m
                rows.append([
                    label,
                    f"{loss:.0%}",
                    f"{m['delivered']}/{WAVE}",
                    f"{m['mean_latency']:.3f}s",
                    m["retries"],
                    m["suppressed"],
                    m["failed"],
                    f"{m['wall'] * 1e3:.0f}ms",
                ])
        overhead = (
            lossless[4]["wall"] / max(lossless[1]["wall"], 1e-9) - 1.0
        ) * 100.0
        rows.append([
            "lossless overhead (retry vs single-shot)", "0%", "", "", "", "",
            "", f"{overhead:+.1f}%",
        ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    delivered = next(r[2] for r in rows if r[:2] == ["retry x4", "20%"])
    write_table(
        "R1",
        "transfer goodput/latency vs loss, retry on/off (exactly-once)",
        ["protocol", "loss", "delivered", "mean arrival", "retries",
         "dedup hits", "failed", "wall"],
        rows,
        seed=SEED,
        headline=(
            "retry x4 delivered at 20% loss",
            int(delivered.split("/")[0]),
            f"agents of {WAVE}",
        ),
        notes=(
            "single-shot loses agents as soon as any handshake/transfer"
            " frame dies; the retrying protocol holds goodput at the cost"
            " of backoff latency, with receiver-side dedup absorbing"
            " retransmits whose ack was lost.  The last row is the"
            " wall-clock price of the retry machinery on a perfect"
            " network (target: within noise, <5%)."
        ),
    )
