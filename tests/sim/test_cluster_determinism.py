"""Cluster-scale determinism: the same seed gives the same run, bit for bit.

``test_determinism.py`` checks a producer/consumer toy.  This runs a
whole self-healing cluster -- heartbeats, escrow checkpoints, a crash
and restart, transfer retries, re-homing, tracing -- twice from one seed
and requires the same kernel event count and the same exported trace.
The seed comes from ``REPRO_STRESS_SEED``, so CI repeats the check
under several seeds.
"""

from __future__ import annotations

import hashlib

from tests.chaos.common import STRESS_SEED, assert_conserved, retry_kwargs, tourists

from repro.server.testbed import Testbed


def run_world(seed: int) -> tuple[int, str, int, int]:
    """One seeded 4-server run.

    Returns (events, trace SHA-256, completions, residents the crash
    killed).
    """
    bed = Testbed(4, seed=seed, self_healing=True, server_kwargs=retry_kwargs())
    recorder = bed.start_tracing()
    _home, s1, s2, s3 = bed.servers
    images = tourists(
        bed, 6, [s1.name, s2.name, s3.name], dwell=lambda i: 1.0 + 1.5 * i
    )
    bed.faults().crash(s1, at=4.0, restart_at=30.0)
    bed.run(until=300.0, detect_deadlock=False)
    bed.stop_tracing()
    digest = hashlib.sha256(recorder.export_jsonl().encode()).hexdigest()
    completed = assert_conserved(bed, images)
    killed = s1.stats["agents_killed_crash"]
    return bed.kernel.events_processed, digest, completed, killed


def test_seeded_self_healing_cluster_runs_identically_twice():
    first = run_world(STRESS_SEED)
    assert first == run_world(STRESS_SEED)
    _events, _digest, completed, killed = first
    assert completed == 6
    assert killed >= 1  # the crash caught residents: re-homing ran
