"""C5 — credential construction, verification and delegation (section 5.2).

Every agent transfer pays one credential-chain verification at admission,
so these costs bound hosting throughput.  Measured: issuing, verifying,
extending chains, verification vs delegation depth, and wire size growth.
"""

from __future__ import annotations

import pytest

from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.keys import KeyPair
from repro.naming.urn import URN
from repro.util.rng import make_rng
from repro.util.serialization import encode

from _common import BenchWorld, time_op, write_table


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.fixture(scope="module")
def relay(world):
    keys = KeyPair.generate(make_rng(5, "relay"), bits=512)
    cert = world.ca.issue("urn:server:relay.org/s", keys.public)
    return keys, cert


def chain_of(world, relay, depth: int) -> DelegatedCredentials:
    keys, cert = relay
    creds = world.credentials(Rights.of("Buffer.*"))
    for _ in range(depth):
        creds = creds.extend(
            delegator=URN.parse("urn:server:relay.org/s"),
            delegator_keys=keys,
            delegator_certificate=cert,
            restriction=Rights.of("Buffer.get"),
            now=world.clock.now(),
            lifetime=1e9,
        )
    return creds


def test_issue(benchmark, world):
    benchmark(world.credentials, Rights.of("Buffer.*"))


def test_verify_base(benchmark, world):
    creds = world.credentials(Rights.all())
    benchmark(creds.verify, world.ca, world.clock.now())


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_verify_chain(benchmark, world, relay, depth):
    creds = chain_of(world, relay, depth)
    benchmark(creds.verify, world.ca, world.clock.now())


def test_extend_chain(benchmark, world, relay):
    keys, cert = relay
    creds = world.credentials(Rights.all())
    benchmark(
        lambda: creds.extend(
            delegator=URN.parse("urn:server:relay.org/s"),
            delegator_keys=keys,
            delegator_certificate=cert,
            restriction=Rights.of("Buffer.get"),
            now=world.clock.now(),
        )
    )


def test_table_c5(benchmark, world, relay):
    def build():
        rows = []
        issue_ns = time_op(lambda: world.credentials(Rights.of("Buffer.*")),
                           target_seconds=0.05)
        rows.append(["issue (owner signs)", 0, issue_ns / 1e3, ""])
        for depth in (0, 1, 2, 4, 8):
            creds = chain_of(world, relay, depth)
            verify_ns = time_op(
                lambda: creds.verify(world.ca, world.clock.now()),
                target_seconds=0.05,
            )
            rights_ns = time_op(
                lambda: creds.effective_rights().permits("Buffer.get")
            )
            rows.append([
                f"verify chain depth {depth}",
                len(encode(creds)),
                verify_ns / 1e3,
                f"rights eval {rights_ns:,.0f} ns",
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    def verify_us(depth: int) -> float:
        return next(r[2] for r in rows if r[0] == f"verify chain depth {depth}")

    write_table(
        "C5",
        "credential costs vs delegation depth (section 5.2)",
        ["operation", "wire bytes", "µs", "notes"],
        rows,
        seed=4000,
        headline=(
            "chain verify per delegation link",
            (verify_us(8) - verify_us(0)) / 8, "µs/link",
        ),
        notes=(
            "verification is linear in depth (one cert validation + one"
            " signature per link); rights evaluation stays cheap because"
            " the conjunction is computed lazily per permission — offline"
            " verifiability, as the paper requires (no online authority)."
        ),
    )
