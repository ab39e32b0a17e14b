"""C1 — RPC vs REV vs mobile agent (the section-1 motivation).

Reproduces the claim from Harrison et al. that the paper's introduction
leans on: moving processing to the data "reduces communication between
the client and the server".  The sweep varies server count, selectivity
(how much data matches) and record size, and reports bytes on the wire,
bytes crossing the client's links, and makespan for all three paradigms
on identical data.

Expected shape: RPC wins when results are tiny (nothing to save); agents
win client-link bytes decisively as data grows; REV sits between (small
results but client-driven round trips).
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.paradigms.workload import STRATEGIES, build_search_world, run_search

from _common import write_table

SMALL = dict(records_per_server=40, selectivity=0.05, blob_size=8)
HEAVY = dict(records_per_server=150, selectivity=0.4, blob_size=400)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_search_heavy(benchmark, strategy):
    benchmark.pedantic(
        lambda: run_search(strategy, n_servers=4, seed=5, **HEAVY),
        rounds=2,
        iterations=1,
    )


def test_table_c1(benchmark):
    def build():
        rows = []
        for label, params in (("light", SMALL), ("heavy", HEAVY)):
            for n_servers in (2, 4, 8):
                results = {}
                for strategy in STRATEGIES:
                    world = build_search_world(
                        n_servers=n_servers, seed=5, **params
                    )
                    results[strategy] = run_search(strategy, world)
                byte_winner = min(results.values(), key=lambda r: r.total_bytes)
                client_winner = min(
                    results.values(), key=lambda r: r.client_link_bytes
                )
                for strategy in STRATEGIES:
                    r = results[strategy]
                    rows.append([
                        label,
                        n_servers,
                        strategy,
                        r.total_bytes,
                        r.client_link_bytes,
                        round(r.makespan, 4),
                        "« total" if r is byte_winner else
                        ("« client" if r is client_winner else ""),
                    ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    def client_bytes(strategy: str) -> int:
        return next(r[4] for r in rows if r[:3] == ["heavy", 8, strategy])

    write_table(
        "C1",
        "paradigm comparison: RPC vs REV vs mobile agent (section 1)",
        ["workload", "servers", "strategy", "total bytes", "client bytes",
         "makespan s", "winner"],
        rows,
        seed=5,
        headline=(
            "rpc / agent client-link bytes, heavy workload, 8 servers",
            round(client_bytes("rpc") / client_bytes("agent"), 2), "x",
        ),
        notes=(
            "light workload (tiny results): RPC's total bytes win — shipping"
            " code costs more than asking.  heavy workload: the agent"
            " minimizes client-link bytes (one departure + one report),"
            " reproducing the Harrison et al. advantage the paper cites."
        ),
    )


def test_table_c1b_crossover(benchmark):
    """Locate the RPC↔agent crossover in selectivity, by interpolation.

    For fixed topology and record size, sweep the fraction of matching
    records and find where shipping the agent starts paying for itself in
    *total* bytes (it always wins client-link bytes once data is nontrivial).
    """

    SELECTIVITIES = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5]

    def build():
        rows = []
        rpc_bytes, agent_bytes = [], []
        for selectivity in SELECTIVITIES:
            results = {}
            for strategy in ("rpc", "agent"):
                world = build_search_world(
                    n_servers=4, records_per_server=60,
                    selectivity=selectivity, blob_size=200, seed=5,
                )
                results[strategy] = run_search(strategy, world)
            rpc_bytes.append(results["rpc"].total_bytes)
            agent_bytes.append(results["agent"].total_bytes)
            rows.append([
                selectivity,
                results["rpc"].total_bytes,
                results["agent"].total_bytes,
                "agent" if agent_bytes[-1] < rpc_bytes[-1] else "rpc",
            ])
        # Interpolate the sign change of (rpc - agent) over selectivity.
        xs = np.array(SELECTIVITIES)
        diff = np.array(rpc_bytes, dtype=float) - np.array(agent_bytes, dtype=float)
        crossover = None
        signs = np.sign(diff)
        flips = np.where(np.diff(signs) != 0)[0]
        if flips.size:
            i = int(flips[0])
            # linear interpolation between the two bracketing points
            x0, x1 = xs[i], xs[i + 1]
            y0, y1 = diff[i], diff[i + 1]
            crossover = float(x0 - y0 * (x1 - x0) / (y1 - y0))
        return rows, crossover

    rows, crossover = benchmark.pedantic(build, rounds=1, iterations=1)
    where = (
        f"crossover at selectivity ~= {crossover:.3f}"
        if crossover is not None
        else "no crossover inside the sweep"
    )
    write_table(
        "C1b",
        "RPC vs agent total bytes across selectivity (4 servers, 200B blobs)",
        ["selectivity", "rpc bytes", "agent bytes", "total-bytes winner"],
        rows,
        seed=5,
        headline=("rpc/agent total-bytes crossover", crossover, "selectivity"),
        notes=(
            f"{where}; below it, asking is cheaper than travelling — the"
            " quantitative form of the paper's qualitative trade-off."
        ),
    )
