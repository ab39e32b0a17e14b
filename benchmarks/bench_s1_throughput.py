"""S1 — warm-path enforcement throughput: the million-invocations sweep.

The paper's whole argument is that mediation belongs at bind time so the
per-call path stays a handful of local checks.  PR 6 finished that job
with capability tokens (O(1) staleness check against two epoch cells)
and protection rings (the dispatch path picked once at proxy
instantiation).  This bench measures the result end to end:

* invocation throughput (ops/sec) and tail latency (p99) as the
  invocation count sweeps 10^3 → 10^6, per protection ring;
* the token fast path itself: warm validation (seen-cache probe) vs
  cold (full HMAC), and token *redemption* against a fresh bind;
* the headline number for EXPERIMENTS.md: warm enforcement stays under
  a microsecond per call.

``python benchmarks/bench_s1_throughput.py --quick`` runs a reduced
sweep with generous regression thresholds — the CI smoke gate.
"""

from __future__ import annotations

import sys
import time

try:
    from repro.apps.buffer import Buffer
except ImportError:  # CLI invocation without PYTHONPATH=src
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    from repro.apps.buffer import Buffer

import pytest

from repro.core.access_protocol import BindingContext
from repro.core.policy import SecurityPolicy
from repro.core.token import (
    RING_NAMES,
    RING_TRUSTED,
    RING_UNTRUSTED,
    RING_VERIFIED,
)
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.util.audit import AuditLog

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")

SWEEP = (1_000, 10_000, 100_000, 1_000_000)
QUICK_SWEEP = (1_000, 10_000)
#: p99 is computed from per-call timestamps; past this many samples the
#: instrumentation would dominate the run, so the tail is sampled.
MAX_TIMED_SAMPLES = 100_000


def make_buffer(local="buf"):
    return Buffer(
        URN.parse(f"urn:resource:bench.org/{local}"),
        OWNER,
        SecurityPolicy.allow_all(confine=False),
    )


def ring_context(world, domain, ring: int) -> BindingContext:
    """A binding context as the server's ring tiering would build it:
    ring 0 drops the audit sink, ring 2 gets one (per-call mediation)."""
    audit = None if ring == RING_TRUSTED else AuditLog(world.clock, capacity=256)
    return BindingContext(
        domain_id=domain.domain_id,
        clock=world.clock,
        server_domain_id="server",
        audit=audit,
        ring=ring,
    )


def proxy_at_ring(world, ring: int):
    buf = make_buffer(f"buf-r{ring}")
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, ring_context(world, domain, ring))
    return buf, domain, proxy


def sweep_row(proxy, n: int) -> tuple[float, float, float]:
    """(ops/sec, mean ns, p99 ns) over ``n`` warm invocations.

    Throughput comes from one plain timed loop (no per-call probes);
    the tail comes from a separate per-call-instrumented loop, sampled
    down so instrumentation never dominates.
    """
    call = proxy.size
    call()  # prime every lazy path before timing
    start = time.perf_counter()
    for _ in range(n):
        call()
    elapsed = time.perf_counter() - start
    samples = min(n, MAX_TIMED_SAMPLES)
    stamps = []
    clock = time.perf_counter_ns
    for _ in range(samples):
        t0 = clock()
        call()
        stamps.append(clock() - t0)
    stamps.sort()
    p99 = stamps[min(samples - 1, int(samples * 0.99))]
    return n / elapsed, elapsed / n * 1e9, float(p99)


# ---------------------------------------------------------------------------
# pytest-benchmark micro timings
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.mark.parametrize("ring", [RING_TRUSTED, RING_VERIFIED, RING_UNTRUSTED])
def test_warm_call_by_ring(benchmark, world, ring):
    _, domain, proxy = proxy_at_ring(world, ring)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_token_validate_warm(benchmark, world):
    buf, _, proxy = proxy_at_ring(world, RING_VERIFIED)
    token = proxy.capability_token()
    authority = buf._authority()
    benchmark(authority.authenticate, token)


def test_token_validate_cold(benchmark, world):
    buf, _, proxy = proxy_at_ring(world, RING_VERIFIED)
    token = proxy.capability_token()
    authority = buf._authority()

    def cold():
        authority._seen.clear()
        authority.authenticate(token)

    benchmark(cold)


def test_token_redeem_warm(benchmark, world):
    buf, domain, proxy = proxy_at_ring(world, RING_VERIFIED)
    token = proxy.capability_token()
    context = ring_context(world, domain, RING_VERIFIED)
    benchmark(buf.redeem_token, token, domain.credentials, context)


# ---------------------------------------------------------------------------
# The regenerated S1 table
# ---------------------------------------------------------------------------


def build_sweep_rows(world, sweep=SWEEP):
    rows = []
    for ring in (RING_TRUSTED, RING_VERIFIED, RING_UNTRUSTED):
        _, domain, proxy = proxy_at_ring(world, ring)
        with enter_group(domain.thread_group):
            for n in sweep:
                ops, mean_ns, p99 = sweep_row(proxy, n)
                rows.append([
                    f"{n:>9,}", RING_NAMES[ring], f"{ops:,.0f}",
                    f"{mean_ns:.0f}", f"{p99:.0f}",
                ])
    return rows


def token_path_notes(world) -> str:
    buf, domain, proxy = proxy_at_ring(world, RING_VERIFIED)
    token = proxy.capability_token()
    authority = buf._authority()
    context = ring_context(world, domain, RING_VERIFIED)
    warm_validate = time_op(lambda: authority.authenticate(token),
                            target_seconds=0.02)

    def cold_validate():
        authority._seen.clear()
        authority.authenticate(token)

    cold = time_op(cold_validate, target_seconds=0.02)
    redeem = time_op(
        lambda: buf.redeem_token(token, domain.credentials, context),
        target_seconds=0.02,
    )
    buf.flush_grant_cache()

    def cold_bind():
        buf.flush_grant_cache()
        buf.get_proxy(domain.credentials, context)

    bind = time_op(cold_bind, target_seconds=0.02)
    return (
        f"token validate: warm {warm_validate:.0f} ns (seen-cache probe),"
        f" cold {cold:.0f} ns (full HMAC); redeem_token {redeem:.0f} ns"
        f" vs cold get_proxy {bind:.0f} ns"
        f" ({bind / max(redeem, 1.0):.0f}x).  Rings differ only in"
        " bookkeeping: ring0 drops the audit sink, ring2 writes one audit"
        " record per call; the enforcement checks are identical."
    )


def write_s1(rows: list, notes: str) -> None:
    """Write the S1 table, headlined by ring1's warm call at the largest
    sweep size."""
    ring1 = RING_NAMES[RING_VERIFIED]
    mean_ns = next(int(r[3]) for r in reversed(rows) if r[1] == ring1)
    write_table(
        "S1",
        "warm enforcement throughput sweep, 10^3..10^6 invocations",
        ["invocations", "ring", "ops/sec", "mean ns/call", "p99 ns"],
        rows,
        seed=4000,
        headline=(f"{ring1} mean call, {SWEEP[-1]:,} invocations", mean_ns, "ns"),
        notes=notes,
    )


def test_table_s1(benchmark, world):
    def build():
        return build_sweep_rows(world), token_path_notes(world)

    rows, notes = benchmark.pedantic(build, rounds=1, iterations=1)
    write_s1(rows, notes)


# ---------------------------------------------------------------------------
# CI smoke mode
# ---------------------------------------------------------------------------

#: Generous CI-box thresholds — regression tripwires, not targets.
QUICK_MIN_OPS_PER_SEC = 50_000.0
QUICK_MAX_WARM_CALL_NS = 20_000.0
QUICK_MAX_WARM_VALIDATE_NS = 5_000.0


def run_quick() -> int:
    world = BenchWorld()
    failures: list[str] = []
    rows = build_sweep_rows(world, sweep=QUICK_SWEEP)
    print(f"{'invocations':>11}  {'ring':5}  {'ops/sec':>12}  "
          f"{'mean ns':>8}  {'p99 ns':>8}")
    for n, ring, ops, mean_ns, p99 in rows:
        print(f"{n:>11}  {ring:5}  {ops:>12}  {mean_ns:>8}  {p99:>8}")
        if float(ops.replace(",", "")) < QUICK_MIN_OPS_PER_SEC:
            failures.append(
                f"{ring} @ {n.strip()} invocations: {ops} ops/sec"
                f" < {QUICK_MIN_OPS_PER_SEC:,.0f}"
            )
        if float(mean_ns) > QUICK_MAX_WARM_CALL_NS:
            failures.append(
                f"{ring} @ {n.strip()}: mean {mean_ns} ns/call"
                f" > {QUICK_MAX_WARM_CALL_NS:,.0f}"
            )
    buf, _, proxy = proxy_at_ring(world, RING_VERIFIED)
    token = proxy.capability_token()
    authority = buf._authority()
    warm_ns = time_op(lambda: authority.authenticate(token),
                      target_seconds=0.02)
    print(f"warm token validate: {warm_ns:.0f} ns")
    if warm_ns > QUICK_MAX_WARM_VALIDATE_NS:
        failures.append(
            f"warm token validate {warm_ns:.0f} ns"
            f" > {QUICK_MAX_WARM_VALIDATE_NS:,.0f}"
        )
    if failures:
        print("\nS1 smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nS1 smoke OK")
    return 0


def main(argv: list[str]) -> int:
    if "--quick" in argv:
        return run_quick()
    world = BenchWorld()
    rows, notes = build_sweep_rows(world), token_path_notes(world)
    write_s1(rows, notes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
