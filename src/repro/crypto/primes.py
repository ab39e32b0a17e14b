"""Primality testing and prime generation (Miller-Rabin).

Two error bounds apply, one per kind of input:

* **Caller-supplied numbers** (``is_probable_prime``) may be chosen
  adversarially, so only the worst-case Miller-Rabin bound holds: each
  random-base round passes a composite with probability at most 1/4, so
  ``rounds`` rounds err with probability at most ``4**-rounds`` (2**-80
  at the default 40).  Below 3.3 * 10**24 the deterministic witness set
  {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is exact; above it those
  witnesses run first, then the random rounds.
* **Generated candidates** (``generate_prime``) are uniformly random, so
  the Damgard-Landrock-Pomerance (DLP) average-case bound applies: a
  random odd k-bit integer that passes t random-base rounds is composite
  with probability at most
  ``p(k, t) = k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k))`` for k >= 21
  and 3 <= t <= k/9.  ``generate_prime`` runs the smallest such t with
  ``p(k, t) <= 2**-81``; the spare bit covers its forced second-top bit,
  which halves the candidate set, so a generated prime is composite with
  probability at most 2**-80.  That is t = 12 for the 256-bit primes of
  a 512-bit key and t = 16 for 192-bit primes.  Sizes with no such t
  (below 171 bits) get the caller-input test.

Before any Miller-Rabin round a candidate is sieved with one ``gcd``
against the product of the odd primes below ``_SIEVE_LIMIT`` and must pass
base 2; both only reject composites, so neither weakens the bound.
"""

from __future__ import annotations

import math
import random

from repro.errors import CryptoError

__all__ = ["is_probable_prime", "generate_prime"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]

_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Error target for a generated prime, as log2 of the DLP bound (one bit
# below the 2**-80 the module promises; see the module docstring).
_DLP_TARGET_LOG2 = -81

# Of 2**10 .. 2**13, 2**11 gave the fastest 512-bit keygen: a larger
# product costs more per gcd than the base-2 rounds it saves.
_SIEVE_LIMIT = 1 << 11


def _odd_primes_below(limit: int) -> list[int]:
    composite = bytearray(limit)
    for i in range(3, math.isqrt(limit) + 1, 2):
        if not composite[i]:
            composite[i * i :: 2 * i] = b"\x01" * len(range(i * i, limit, 2 * i))
    return [i for i in range(3, limit, 2) if not composite[i]]


# One gcd against this product (2864 bits) replaces trial division by
# the 308 odd primes below the limit.
_SIEVE_PRODUCT = math.prod(_odd_primes_below(_SIEVE_LIMIT))


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _split(n: int) -> tuple[int, int]:
    """Write ``n - 1`` as ``d * 2**r`` with ``d`` odd."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    return (n - 1) >> r, r


def is_probable_prime(n: int, rng: random.Random | None = None, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Deterministic (exact) for ``n`` below ~3.3e24; above that the twelve
    fixed witnesses plus ``rounds`` random ones, for a worst-case error
    of at most ``4**-rounds``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = _split(n)
    for a in _DETERMINISTIC_WITNESSES:
        if _miller_rabin_witness(n, a, d, r):
            return False
    if n < _DETERMINISTIC_BOUND:
        return True
    if rng is None:
        rng = random.Random(n)  # deterministic fallback keyed on the candidate
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def _dlp_log2_bound(k: int, t: int) -> float:
    """log2 of the DLP bound ``p(k, t)`` (valid for k >= 21, 3 <= t <= k/9)."""
    return 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))


def _random_rounds(bits: int) -> int | None:
    """Random-base rounds a uniformly drawn ``bits``-bit candidate needs.

    The smallest t the DLP bound allows for ``_DLP_TARGET_LOG2``, or None
    when no t qualifies (the caller then uses the worst-case test).
    """
    if bits < 21:
        return None
    for t in range(3, bits // 9 + 1):
        if _dlp_log2_bound(bits, t) <= _DLP_TARGET_LOG2:
            return t
    return None


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such
    primes has exactly ``2*bits`` bits (standard RSA practice); the low
    bit is forced to 1 for oddness.
    """
    if bits < 8:
        raise CryptoError(f"prime size {bits} too small (minimum 8 bits)")
    rounds = _random_rounds(bits)
    top = (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    # Expected ~ bits * ln(2) / 2 candidates; bound generously.
    for _ in range(100 * bits):
        candidate = rng.getrandbits(bits) | top
        # A candidate below the limit may itself be one of the sieve primes.
        if candidate >= _SIEVE_LIMIT and math.gcd(candidate, _SIEVE_PRODUCT) != 1:
            continue
        if rounds is None:
            if is_probable_prime(candidate, rng):
                return candidate
            continue
        d, r = _split(candidate)
        if _miller_rabin_witness(candidate, 2, d, r):
            continue
        for _ in range(rounds):
            if _miller_rabin_witness(candidate, rng.randrange(2, candidate - 1), d, r):
                break
        else:
            return candidate
    raise CryptoError(f"failed to find a {bits}-bit prime")  # pragma: no cover
