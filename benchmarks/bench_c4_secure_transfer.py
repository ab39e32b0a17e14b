"""C4 — secure-channel costs and attack detection (section 2).

- wall-clock cost of the crypto on the transfer path: canonical
  serialization, AEAD seal/open across payload sizes, the RSA handshake;
- plain vs secure request/response wall cost at the endpoint level;
- detection table: each adversary class against the secure channel —
  every active attack must be *detected* (and counted), every passive
  attack must yield no plaintext.
"""

from __future__ import annotations

import pytest

from repro.crypto.cipher import NONCE_SIZE, open_payload, seal_payload
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.net.adversary import Eavesdropper, Replayer, Tamperer
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode

from _common import time_op, write_table

KEY = sha256(b"bench session key")
NONCE = b"n" * NONCE_SIZE


@pytest.mark.parametrize("size", [128, 4096, 65536])
def test_seal(benchmark, size):
    payload = b"x" * size
    benchmark(seal_payload, KEY, NONCE, payload)


@pytest.mark.parametrize("size", [128, 4096, 65536])
def test_open(benchmark, size):
    sealed = seal_payload(KEY, NONCE, b"x" * size)
    benchmark(open_payload, KEY, sealed)


def test_rsa_handshake_sign(benchmark):
    keys = KeyPair.generate(make_rng(1, "kp"), bits=512)
    digest = sha256(b"transcript")
    benchmark(keys.private.sign, digest)


def test_rsa_handshake_verify(benchmark):
    keys = KeyPair.generate(make_rng(1, "kp"), bits=512)
    digest = sha256(b"transcript")
    sig = keys.private.sign(digest)
    benchmark(keys.public.verify, digest, sig)


@pytest.mark.parametrize("bits", [384, 512, 1024])
def test_rsa_sign_vs_key_size(benchmark, bits):
    """How the handshake cost scales with key strength."""
    keys = KeyPair.generate(make_rng(1, f"kp{bits}"), bits=bits)
    digest = sha256(b"transcript")
    benchmark(keys.private.sign, digest)


def _secure_pair():
    """alice -> bob over an established secure channel; bob's "data"
    handler collects the bodies it is given."""
    from repro.crypto.cert import CertificateAuthority
    from repro.net.network import Network
    from repro.net.secure_channel import SecureHost
    from repro.net.transport import Endpoint
    from repro.sim.kernel import Kernel
    from repro.sim.threads import SimThread

    kernel = Kernel()
    network = Network(kernel, seed=1)
    ca = CertificateAuthority("ca", make_rng(1, "ca"), kernel.clock)
    hosts = {}
    for name in ("alice", "bob"):
        network.add_node(name)
        ep = Endpoint(network, name)
        keys = KeyPair.generate(make_rng(2, name), bits=512)
        hosts[name] = SecureHost(
            endpoint=ep, name=name, keys=keys,
            certificate=ca.issue(name, keys.public), trust_anchor=ca,
            clock=kernel.clock, rng=make_rng(3, name),
        )
    fwd, _rev = network.connect("alice", "bob")
    delivered = []
    hosts["bob"].bind_app("data", lambda peer, body: delivered.append(body))
    channels = []
    SimThread(
        kernel, lambda: channels.append(hosts["alice"].connect("bob")), "client"
    ).start()
    kernel.run()
    return kernel, hosts["bob"], fwd, channels[0], delivered


def _attack_world(adversary):
    """One secure exchange with an adversary on the forward link."""
    kernel, bob, fwd, channel, delivered = _secure_pair()
    if adversary is not None:
        fwd.add_tap(adversary)  # attack the data plane only
    channel.send("data", b"credit-card=4242424242424242")
    channel.send("data", b"second message")
    kernel.run(detect_deadlock=False)
    return bob, delivered


def _secure_message_ns(body: bytes) -> float:
    """Wall ns for one secure send: frame, seal, carry, open, dispatch."""
    kernel, _bob, _fwd, channel, delivered = _secure_pair()

    def one():
        channel.send("data", body)
        kernel.run()
        delivered.clear()

    return time_op(one)


def test_table_c4(benchmark):
    def build():
        rows = []
        # crypto micro-costs
        image_like = {"state": {"k": list(range(50))}, "code": "x" * 2000}
        blob = encode(image_like)
        rows.append(["canonical encode (2KB image)", time_op(lambda: encode(image_like)), ""])
        rows.append(["canonical decode (2KB image)", time_op(lambda: decode(blob)), ""])
        sealed = seal_payload(KEY, NONCE, blob)
        rows.append(["AEAD seal (2KB)", time_op(lambda: seal_payload(KEY, NONCE, blob)), ""])
        rows.append(["AEAD open (2KB)", time_op(lambda: open_payload(KEY, sealed)), ""])
        keys = KeyPair.generate(make_rng(1, "kp"), bits=512)
        digest = sha256(b"t")
        sig = keys.private.sign(digest)
        rows.append(["RSA-512 sign (per handshake flight)",
                     time_op(lambda: keys.private.sign(digest)), ""])
        rows.append(["RSA-512 verify",
                     time_op(lambda: keys.public.verify(digest, sig)), ""])
        rows.append(["secure message, send to handler (2KB body)",
                     _secure_message_ns(blob), ""])
        # attack detection
        bob, delivered = _attack_world(None)
        rows.append(["baseline: 2 messages sent", "", f"{len(delivered)} delivered"])
        spy = Eavesdropper()
        bob, delivered = _attack_world(spy)
        leaked = spy.saw_substring(b"4242424242424242")
        rows.append(["eavesdropper", "",
                     f"{len(delivered)} delivered, plaintext leaked: {leaked}"])
        bob, delivered = _attack_world(Tamperer(make_rng(4, "t"), rate=1.0))
        rows.append(["tamperer (all frames)", "",
                     f"{len(delivered)} delivered,"
                     f" {bob.stats['rejected_tampered']} rejected"])
        bob, delivered = _attack_world(Replayer(copies=2))
        rows.append(["replayer (x2 every frame)", "",
                     f"{len(delivered)} delivered,"
                     f" {bob.stats['rejected_replayed']} rejected"])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    per_message = next(row for row in rows if row[0].startswith("secure message"))
    write_table(
        "C4",
        "secure transfer: crypto costs and attack detection (section 2)",
        ["operation / attack", "ns", "outcome"],
        rows,
        seed=1,
        headline=(per_message[0], per_message[1], "ns"),
        notes=(
            "integrity: tampered frames never deliver; replay: duplicates"
            " rejected by sequence check; privacy: eavesdroppers see no"
            " plaintext.  RSA dominates channel *setup*; AEAD dominates the"
            " per-message path and scales with payload size."
        ),
    )
