"""Shared helpers for the benchmark harness.

Every bench regenerates one experiment from DESIGN.md's index and writes
its table to ``benchmarks/results/<exp>.txt`` (also echoed to stdout), so
``pytest benchmarks/ --benchmark-only`` reproduces both the rigorous
per-operation timings (pytest-benchmark) and the paper-shaped comparison
tables that EXPERIMENTS.md records.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import statistics
import time
from typing import Callable, Iterable

from repro.core.access_protocol import BindingContext
from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.naming.urn import URN
from repro.sandbox.domain import ProtectionDomain
from repro.sandbox.threadgroup import ThreadGroup
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


class BenchWorld:
    """A minimal PKI + domain factory for direct-mode micro-benchmarks."""

    def __init__(self, seed: int = 4000) -> None:
        self.clock = VirtualClock()
        self.ca = CertificateAuthority("bench-ca", make_rng(seed, "ca"), self.clock)
        self.owner = URN.parse("urn:principal:bench.org/owner")
        self.owner_keys = KeyPair.generate(make_rng(seed, "owner"), bits=512)
        self.owner_cert = self.ca.issue(str(self.owner), self.owner_keys.public)
        self.server_domain = ProtectionDomain(
            "server", "server", ThreadGroup("server-group")
        )
        self._counter = 0

    def credentials(self, rights: Rights, lifetime: float = 1e9) -> DelegatedCredentials:
        self._counter += 1
        cred = Credentials.issue(
            agent=URN.parse(f"urn:agent:bench.org/a{self._counter}"),
            owner=self.owner,
            creator=self.owner,
            owner_keys=self.owner_keys,
            owner_certificate=self.owner_cert,
            rights=rights,
            now=self.clock.now(),
            lifetime=lifetime,
        )
        return DelegatedCredentials.wrap(cred)

    def agent_domain(self, rights: Rights) -> ProtectionDomain:
        creds = self.credentials(rights)
        self._counter += 1
        return ProtectionDomain(
            f"dom-{self._counter}",
            "agent",
            ThreadGroup(f"group-{self._counter}"),
            credentials=creds,
        )

    def context(self, domain: ProtectionDomain) -> BindingContext:
        return BindingContext(
            domain_id=domain.domain_id, clock=self.clock, server_domain_id="server"
        )


def time_op(fn: Callable[[], object], *, target_seconds: float = 0.05,
            repeat: int | None = None) -> float:
    """Nanoseconds per call of ``fn`` (median of 3 self-calibrated batches)."""
    if repeat is None:
        # Calibrate the batch size so one batch takes ~target_seconds.
        n, elapsed = 1, 0.0
        while True:
            start = time.perf_counter()
            for _ in range(n):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= target_seconds / 10 or n >= 1_000_000:
                break
            n *= 4
        repeat = max(1, min(1_000_000, int(n * target_seconds / max(elapsed, 1e-9))))
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        samples.append((time.perf_counter() - start) / repeat)
    samples.sort()
    return samples[1] * 1e9


def median_of(run: Callable[[], float]) -> float:
    """Median of 5 calls of ``run``: a full-stack row of one world's run
    is at the mercy of a single scheduler stall, the median is not."""
    return statistics.median(run() for _ in range(5))


def write_table(
    exp_id: str,
    title: str,
    headers: list[str],
    rows: Iterable[Iterable[object]],
    notes: str = "",
    *,
    headline: tuple[str, float, str],
    seed: object = None,
) -> str:
    """Format, print and persist one experiment table.

    Besides the human-readable ``results/<exp>.txt``, every table also
    lands as machine-readable ``results/BENCH_<exp>.json`` — headline
    metric/value/unit, the driving ``seed``, and the full raw table for
    downstream tooling.  ``headline=(metric, value, unit)`` names the
    number the table is about.
    """
    raw_rows = [list(row) for row in rows]
    _write_json(exp_id, title, headers, raw_rows, notes, seed, headline)
    rows = [[_fmt(cell) for cell in row] for row in raw_rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"== {exp_id}: {title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    if notes:
        lines.append(notes)
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text)
    print("\n" + text)
    return text


def _write_json(
    exp_id: str,
    title: str,
    headers: list[str],
    raw_rows: list[list[object]],
    notes: str,
    seed: object,
    headline: tuple[str, float, str],
) -> None:
    metric, value, unit = headline
    payload = {
        "exp_id": exp_id,
        "title": title,
        "metric": metric,
        "value": value,
        "unit": unit,
        "seed": seed,
        "headers": headers,
        "rows": raw_rows,
        "notes": notes,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{exp_id}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )


@contextlib.contextmanager
def tracing_to(path_base: pathlib.Path | str):
    """Install a wall-clock tracer for the block; export on the way out.

    Backs ``pytest benchmarks/ --trace-dir DIR`` (see conftest): any
    instrumented code path the bench drives lands in
    ``<path_base>.json`` (Chrome trace-event) and ``<path_base>.jsonl``.
    Nothing is written when the block produced no spans.
    """
    from repro.obs import runtime as _obs
    from repro.obs.trace import Tracer

    tracer = Tracer(service="bench")
    _obs.install(tracer=tracer)
    try:
        yield tracer
    finally:
        _obs.uninstall()
        if tracer.finished or tracer.open_spans():
            tracer.export_chrome(f"{path_base}.json")
            tracer.export_jsonl(f"{path_base}.jsonl")


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)
