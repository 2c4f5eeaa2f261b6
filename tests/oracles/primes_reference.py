"""The seed prime generator: the oracle for ``repro.crypto.primes``.

``is_probable_prime`` and ``generate_prime`` exactly as they stood before
``src/`` started spending Miller-Rabin rounds by candidate size: every
candidate that survives the 46-prime trial division gets the full block
of 40 random-base rounds.  ``tests/crypto/test_primes.py`` and
``benchmarks/test_microbench_keygen.py`` require the current generator
to return this one's primes and to leave the rng in this one's state,
and count both generators' work with :func:`counted_keypairs`.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.crypto import primes, rsa

__all__ = ["is_probable_prime", "generate_prime", "counted_keypairs"]

# Small primes used to cheaply reject most composite candidates before the
# Miller-Rabin rounds.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Deterministic witness set for n < 3.3 * 10^24 (Sorenson & Webster).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_witness(n: int, a: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 40,
                      rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (no false positives) for ``n`` below ~3.3e24; otherwise
    probabilistic with error probability at most ``4**-rounds``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n]
    else:
        rng = rng or random
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]

    return not any(_miller_rabin_witness(n, a) for a in witnesses)


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits (standard RSA practice), and the low bit is
    forced to 1 so candidates are odd.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    rng = rng or random.SystemRandom()
    top_bits = (1 << (bits - 1)) | (1 << (bits - 2))
    while True:
        candidate = rng.getrandbits(bits) | top_bits | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def counted_keypairs(module, count: int,
                     rng: random.Random) -> tuple[list[bytes], int]:
    """``count`` RSA-512 keys from ``rng`` with ``module``'s generator (this
    module or ``repro.crypto.primes``) behind ``rsa.generate_keypair``.

    Returns the serialized keys followed by the stream's next draw, and
    the Miller-Rabin exponentiations spent -- a count, so it repeats
    exactly where a timing would not.
    """
    spent = 0
    step = module._miller_rabin_witness

    def counted_step(*args) -> bool:
        nonlocal spent
        spent += 1
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_miller_rabin_witness", counted_step)
        patch.setattr(primes, "generate_prime", module.generate_prime)
        keys = [rsa.generate_keypair(512, rng).to_bytes()
                for _ in range(count)]
    keys.append(rng.getrandbits(64).to_bytes(8, "big"))
    return keys, spent
