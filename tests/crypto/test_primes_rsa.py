"""Tests for primality testing and raw RSA."""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes, rsa
from repro.crypto.hashing import sha256
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.errors import CryptoError, SignatureError
from repro.util.rng import make_rng


class TestPrimes:
    def test_small_primes(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101}
        for n in range(2, 103):
            assert is_probable_prime(n) == (n in primes or n in {
                43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89
            })

    def test_edge_cases(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(-7)

    def test_known_large_prime(self):
        # 2^127 - 1 is a Mersenne prime
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**128)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401):
            assert not is_probable_prime(n)

    def test_generate_prime_bit_length(self):
        rng = make_rng(7, "primes")
        for bits in (16, 64, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)
            assert p % 2 == 1

    def test_generate_prime_deterministic(self):
        assert generate_prime(64, make_rng(1, "p")) == generate_prime(64, make_rng(1, "p"))

    def test_generate_prime_too_small(self):
        with pytest.raises(CryptoError):
            generate_prime(4, make_rng(1, "p"))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=2**20))
    def test_property_agrees_with_trial_division(self, n):
        def trial(n: int) -> bool:
            if n < 2:
                return False
            i = 2
            while i * i <= n:
                if n % i == 0:
                    return False
                i += 1
            return True

        assert is_probable_prime(n) == trial(n)


# The smallest strong pseudoprime to all twelve fixed witnesses (psi_12).
PSI_12 = 3_317_044_064_679_887_385_961_981

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "101"))

SMALL_ODD_PRIMES = [n for n in range(3, primes._SIEVE_LIMIT, 2)
                    if all(n % p for p in range(3, math.isqrt(n) + 1, 2))]


class TestPrimeErrorBounds:
    def test_psi_12_passes_every_fixed_witness(self):
        d, r = primes._split(PSI_12)
        for a in primes._DETERMINISTIC_WITNESSES:
            assert not primes._miller_rabin_witness(PSI_12, a, d, r)

    def test_psi_12_rejected_by_the_random_rounds(self):
        assert not is_probable_prime(PSI_12)
        assert not is_probable_prime(PSI_12, make_rng(STRESS_SEED, "psi12"))

    @pytest.mark.parametrize("bits, rounds", [(192, 16), (256, 12), (512, 6)])
    def test_dlp_rounds_are_the_smallest_that_meet_the_target(self, bits, rounds):
        assert primes._random_rounds(bits) == rounds
        assert 3 <= rounds <= bits / 9
        assert primes._dlp_log2_bound(bits, rounds) <= -81
        assert primes._dlp_log2_bound(bits, rounds - 1) > -81

    def test_no_dlp_rounds_below_171_bits(self):
        assert primes._random_rounds(171) is not None
        for bits in (8, 20, 21, 64, 128, 160, 170):
            assert primes._random_rounds(bits) is None

    @staticmethod
    def _rounds_on_accepted_prime(monkeypatch, bits: int) -> int:
        calls: list[int] = []
        witness = primes._miller_rabin_witness

        def counting(n, a, d, r):
            calls.append(n)
            return witness(n, a, d, r)

        monkeypatch.setattr(primes, "_miller_rabin_witness", counting)
        p = generate_prime(bits, make_rng(STRESS_SEED, f"rounds-{bits}"))
        return calls.count(p)

    @pytest.mark.parametrize("bits, rounds", [(192, 17), (256, 13)])
    def test_generated_prime_runs_base_2_then_dlp_rounds(self, monkeypatch, bits, rounds):
        assert self._rounds_on_accepted_prime(monkeypatch, bits) == rounds

    @pytest.mark.parametrize("bits", [128, 170])
    def test_sizes_without_dlp_rounds_get_the_worst_case_count(self, monkeypatch, bits):
        # Twelve fixed witnesses plus the 40 random rounds of caller input.
        assert self._rounds_on_accepted_prime(monkeypatch, bits) == 12 + 40

    @pytest.mark.parametrize("bits", [8, 11, 12])
    def test_candidates_below_the_sieve_limit_can_be_sieve_primes(self, bits):
        # Every 8-bit prime divides the sieve product; it must still be drawn.
        for seed in range(20):
            p = generate_prime(bits, make_rng(seed, "small"))
            assert p.bit_length() == bits
            assert all(p % q for q in range(2, math.isqrt(p) + 1))

    def test_sieve_product_is_the_odd_primes_below_the_limit(self):
        assert primes._SIEVE_PRODUCT == math.prod(SMALL_ODD_PRIMES)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2**256))
    def test_gcd_sieve_agrees_with_trial_division(self, n):
        has_factor = any(n % p == 0 for p in SMALL_ODD_PRIMES)
        assert (math.gcd(n, primes._SIEVE_PRODUCT) != 1) == has_factor

    @pytest.mark.parametrize("bits", [192, 256])
    def test_generated_primes_pass_the_worst_case_test(self, bits):
        rng = make_rng(STRESS_SEED, f"generated-{bits}")
        for _ in range(200):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)


class TestRsa:
    @pytest.fixture(scope="class")
    def key(self):
        return rsa.rsa_keygen(512, make_rng(42, "rsa"))

    def test_keygen_invariants(self, key):
        assert key.n == key.p * key.q
        assert key.bits == 512
        assert key.e == 65537
        phi = (key.p - 1) * (key.q - 1)
        assert (key.e * key.d) % phi == 1
        assert (key.q * key.q_inv) % key.p == 1

    def test_keygen_bad_sizes(self):
        with pytest.raises(CryptoError):
            rsa.rsa_keygen(256, make_rng(1, "r"))
        with pytest.raises(CryptoError):
            rsa.rsa_keygen(513, make_rng(1, "r"))

    def test_sign_verify_roundtrip(self, key):
        digest = sha256(b"the agent's credentials")
        sig = rsa.rsa_sign_digest(key, digest)
        rsa.rsa_verify_digest(key.n, key.e, digest, sig)  # no raise

    def test_signature_is_deterministic(self, key):
        digest = sha256(b"msg")
        assert rsa.rsa_sign_digest(key, digest) == rsa.rsa_sign_digest(key, digest)

    def test_wrong_digest_rejected(self, key):
        sig = rsa.rsa_sign_digest(key, sha256(b"a"))
        with pytest.raises(SignatureError):
            rsa.rsa_verify_digest(key.n, key.e, sha256(b"b"), sig)

    def test_tampered_signature_rejected(self, key):
        digest = sha256(b"msg")
        sig = bytearray(rsa.rsa_sign_digest(key, digest))
        sig[10] ^= 0x01
        with pytest.raises(SignatureError):
            rsa.rsa_verify_digest(key.n, key.e, digest, bytes(sig))

    def test_wrong_length_signature_rejected(self, key):
        with pytest.raises(SignatureError, match="length"):
            rsa.rsa_verify_digest(key.n, key.e, sha256(b"m"), b"short")

    def test_out_of_range_signature_rejected(self, key):
        k = (key.n.bit_length() + 7) // 8
        too_big = (key.n + 1).to_bytes(k, "big")
        with pytest.raises(SignatureError, match="range"):
            rsa.rsa_verify_digest(key.n, key.e, sha256(b"m"), too_big)

    def test_wrong_key_rejected(self, key):
        other = rsa.rsa_keygen(512, make_rng(43, "rsa"))
        digest = sha256(b"msg")
        sig = rsa.rsa_sign_digest(key, digest)
        with pytest.raises(SignatureError):
            rsa.rsa_verify_digest(other.n, other.e, digest, sig)

    def test_digest_size_enforced(self, key):
        with pytest.raises(CryptoError):
            rsa.rsa_sign_digest(key, b"short")

    def test_kem_roundtrip(self, key):
        ct, shared = rsa.rsa_encapsulate(key.n, key.e, make_rng(5, "kem"))
        assert rsa.rsa_decapsulate(key, ct) == shared
        assert len(shared) == 32

    def test_kem_different_nonces_different_keys(self, key):
        rng = make_rng(5, "kem")
        _, k1 = rsa.rsa_encapsulate(key.n, key.e, rng)
        _, k2 = rsa.rsa_encapsulate(key.n, key.e, rng)
        assert k1 != k2

    def test_kem_bad_ciphertext_length(self, key):
        with pytest.raises(CryptoError):
            rsa.rsa_decapsulate(key, b"short")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_property_sign_verify_any_message(self, message):
        key = rsa.rsa_keygen(384, make_rng(9, "prop-rsa"))
        digest = sha256(message)
        sig = rsa.rsa_sign_digest(key, digest)
        rsa.rsa_verify_digest(key.n, key.e, digest, sig)
