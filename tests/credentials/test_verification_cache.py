"""The bounded credential-verification cache (binding fast path).

A chain verified once keeps its RSA work; only the time-dependent
conditions replay on a hit.  These tests pin the soundness obligations:
expiry is honored on hits, trust-store mutations orphan cached verdicts,
tampering never slips through, and eviction bounds memory.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.credentials.cache import (
    CredentialVerificationCache,
    credential_fingerprint,
)
from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.crypto.trust import TrustStore
from repro.naming.urn import URN
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng


class Env:
    def __init__(self, seed: int = 901):
        self.clock = VirtualClock()
        self.ca = CertificateAuthority("vc-ca", make_rng(seed, "ca"), self.clock)
        self.store = TrustStore.of(self.clock, self.ca)
        self.owner = URN.parse("urn:principal:umn.edu/anand")
        self.keys = KeyPair.generate(make_rng(seed, "owner"), bits=512)
        self.cert = self.ca.issue(str(self.owner), self.keys.public)

    def credentials(
        self, local: str = "agent-1", *, lifetime: float = 1000.0,
        cert=None,
    ) -> DelegatedCredentials:
        cred = Credentials.issue(
            agent=URN.parse(f"urn:agent:umn.edu/{local}"),
            owner=self.owner,
            creator=self.owner,
            owner_keys=self.keys,
            owner_certificate=cert if cert is not None else self.cert,
            rights=Rights.of("Buffer.*"),
            now=self.clock.now(),
            lifetime=lifetime,
        )
        return DelegatedCredentials.wrap(cred)


def test_repeat_verification_hits():
    env = Env()
    cache = CredentialVerificationCache()
    creds = env.credentials()
    for _ in range(3):
        cache.verify(creds, env.store, env.clock.now())
    # Two verdicts are kept: the chain and its owner certificate.
    assert cache.stats() == {"hits": 2, "misses": 1, "size": 2}


def test_delegated_chain_is_cached_by_whole_chain():
    env = Env()
    cache = CredentialVerificationCache()
    base = env.credentials()
    server = URN.parse("urn:principal:umn.edu/server")
    server_keys = KeyPair.generate(make_rng(7, "srv"), bits=512)
    server_cert = env.ca.issue(str(server), server_keys.public)
    extended = base.extend(
        delegator=server,
        delegator_keys=server_keys,
        delegator_certificate=server_cert,
        restriction=Rights.of("Buffer.get"),
        now=env.clock.now(),
    )
    cache.verify(base, env.store, env.clock.now())
    cache.verify(extended, env.store, env.clock.now())  # distinct identity
    assert cache.misses == 2
    cache.verify(extended, env.store, env.clock.now())
    assert cache.hits == 1
    assert credential_fingerprint(base) != credential_fingerprint(extended)


def test_expiry_is_honored_on_hits():
    """The classic cache bug — a hit outliving the credential — must not exist."""
    env = Env()
    cache = CredentialVerificationCache()
    creds = env.credentials(lifetime=100.0)
    cache.verify(creds, env.store, env.clock.now())
    env.clock.advance(99.0)
    cache.verify(creds, env.store, env.clock.now())  # still inside: hit
    assert cache.hits == 1
    env.clock.advance(2.0)  # past expires_at
    from repro.errors import CredentialExpiredError

    with pytest.raises(CredentialExpiredError):
        cache.verify(creds, env.store, env.clock.now())


def test_link_expiry_bounds_the_cached_window():
    env = Env()
    cache = CredentialVerificationCache()
    server = URN.parse("urn:principal:umn.edu/server")
    server_keys = KeyPair.generate(make_rng(8, "srv"), bits=512)
    server_cert = env.ca.issue(str(server), server_keys.public)
    extended = env.credentials(lifetime=1000.0).extend(
        delegator=server,
        delegator_keys=server_keys,
        delegator_certificate=server_cert,
        restriction=Rights.of("Buffer.get"),
        now=env.clock.now(),
        lifetime=50.0,  # the tightest bound in the chain
    )
    cache.verify(extended, env.store, env.clock.now())
    env.clock.advance(51.0)
    from repro.errors import CredentialExpiredError

    with pytest.raises(CredentialExpiredError):
        cache.verify(extended, env.store, env.clock.now())


def test_removing_an_anchor_orphans_cached_verdicts():
    env = Env()
    cache = CredentialVerificationCache()
    creds = env.credentials()
    cache.verify(creds, env.store, env.clock.now())
    env.store.remove_anchor("vc-ca")
    from repro.errors import CredentialError

    with pytest.raises(CredentialError):
        cache.verify(creds, env.store, env.clock.now())
    # Re-trusting bumps the version again: full re-verification, not a hit.
    env.store.add_anchor(env.ca.root_certificate)
    cache.verify(creds, env.store, env.clock.now())
    assert cache.hits == 0  # every verify so far ran under a new trust set
    cache.verify(creds, env.store, env.clock.now())
    assert cache.hits == 1  # stable trust set: back to hitting


def test_tampered_chain_never_verifies_cached_or_not():
    env = Env()
    cache = CredentialVerificationCache()
    honest = env.credentials()
    cache.verify(honest, env.store, env.clock.now())
    forged_base = dataclasses.replace(honest.base, rights=Rights.all())
    forged = DelegatedCredentials(base=forged_base, links=())
    from repro.errors import CredentialError

    for _ in range(2):  # failures are not memoized either
        with pytest.raises(CredentialError):
            cache.verify(forged, env.store, env.clock.now())
    assert cache.misses == 3


def test_distinct_stores_do_not_share_verdicts():
    env = Env()
    cache = CredentialVerificationCache()
    creds = env.credentials()
    empty_store = TrustStore(env.clock)
    cache.verify(creds, env.store, env.clock.now())
    from repro.errors import CredentialError

    with pytest.raises(CredentialError):  # nothing trusted over there
        cache.verify(creds, empty_store, env.clock.now())


def test_eviction_keeps_the_cache_bounded():
    env = Env()
    cache = CredentialVerificationCache(maxsize=4)
    pool = [env.credentials(f"agent-{i}") for i in range(6)]
    for creds in pool:
        cache.verify(creds, env.store, env.clock.now())
    assert len(cache) == 4
    cache.verify(pool[0], env.store, env.clock.now())  # evicted: full miss
    assert cache.misses == 7 and cache.hits == 0


def test_fingerprint_is_stable_and_memoized():
    env = Env()
    creds = env.credentials()
    assert credential_fingerprint(creds) == creds.fingerprint() == creds.chain_digest()
