"""Prime generation and modular arithmetic for the RSA substrate.

Miller-Rabin runs under two error regimes, and the module keeps them
apart:

* :func:`is_probable_prime` answers for an *arbitrary* ``n``, possibly
  chosen by an adversary to have as many strong liars as a composite can
  (a quarter of the bases).  Its bound is the worst-case ``4**-rounds``,
  so the default stays at 40 rounds (``2**-80``), and below ~3.3e24 a
  fixed witness set makes the answer exact.
* :func:`generate_prime` tests candidates *it drew uniformly at random*,
  and a random odd ``k``-bit number that passes ``t`` random-base rounds
  is composite with a probability far below ``4**-t`` (Damgard, Landrock
  & Pomerance; Handbook of Applied Cryptography Fact 4.48).
  ``_GENERATED_ROUNDS`` is HAC Table 4.4 -- the rounds that keep that
  probability under ``2**-80`` at each size, which is also what
  OpenSSL's ``BN_prime_checks_for_size`` applied in the legacy RSA API
  the paper's PoC used: 12 rounds, not 40, for the 256-bit primes of an
  RSA-512 key.

Prime generation draws candidates *and witnesses* from a caller-supplied
RNG so that simulations are bit-for-bit reproducible (see
:mod:`repro.sim.rng`).  What it draws is a contract with every seeded
stream that generates keys (``_WITNESS_DRAWS``); what it spends on
modular exponentiations is not.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "modinv",
    "lcm",
]

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

# The seeded-stream contract: generate_prime draws this many witnesses for
# every candidate that survives _SMALL_PRIMES, whether or not it goes on to
# use them, because the gateway streams that generate keys are shared with
# other draws and every committed digest and trace depends on their state.
# To be lowered to the rounds actually run when the streams are re-keyed
# (a declared digest change; ROADMAP item 2).
_WITNESS_DRAWS = 40

# (floor size in bits, rounds): Miller-Rabin rounds that keep the chance of
# returning a composite at or below 2**-80 for a uniformly random odd
# candidate of at least that size (HAC Table 4.4; descending, first match).
# Sizes under the last floor run every drawn witness.
_GENERATED_ROUNDS = (
    (1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
    (350, 8), (300, 9), (250, 12), (200, 15), (150, 18), (100, 27),
)


def _primes_between(low: int, high: int) -> list[int]:
    """Primes ``p`` with ``low < p <= high`` (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (high + 1)
    for i in range(2, math.isqrt(high) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, high + 1, i)))
    return [n for n in range(low + 1, high + 1) if sieve[n]]


# Product of the primes between _SMALL_PRIMES and 2**13: one gcd (about
# ten microseconds) settles what a 256-bit exponentiation (over a hundred)
# would otherwise be spent on for two in five of the composite survivors.
# The saving is flat from 2**11 to 2**14 and gone by 2**16 (EXPERIMENTS.md,
# PR 20), so the bound is a constant, not a setting.
_SIEVE_PRODUCT = math.prod(_primes_between(_SMALL_PRIMES[-1], 1 << 13))


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite, where
    ``n - 1 == d << r`` with ``d`` odd.  One modular exponentiation."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _passes_miller_rabin(n: int, witnesses: Iterable[int]) -> bool:
    """True if no base in ``witnesses`` proves the odd ``n > 2`` composite."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    return not any(_miller_rabin_witness(n, a, d, r) for a in witnesses)


def is_probable_prime(n: int, rounds: int = 40,
                      rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test for an arbitrary ``n``.

    Deterministic (no false positives) for ``n`` below ~3.3e24; otherwise
    probabilistic with error probability at most ``4**-rounds`` whatever
    ``n`` is -- the worst-case bound, which is the one that applies to
    input the caller did not draw itself.  The bases are random so that
    no composite can be prepared against them.
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

    return _passes_miller_rabin(n, witnesses)


def _generated_rounds(bits: int) -> int:
    """Rounds ``generate_prime`` runs on a ``bits``-bit random candidate."""
    for floor, rounds in _GENERATED_ROUNDS:
        if bits >= floor:
            return rounds
    return _WITNESS_DRAWS


def _draws_by_getrandbits(rng: random.Random) -> bool:
    """Whether ``rng.randrange(2, n)`` is :class:`random.Random`'s own:
    ``2 + _randbelow_with_getrandbits(n - 2)``.  A subclass that supplies
    only ``random()`` gets ``_randbelow_without_getrandbits`` instead."""
    cls = type(rng)
    return (getattr(cls, "randrange", None) is random.Random.randrange
            and getattr(cls, "_randbelow", None)
            is random.Random._randbelow_with_getrandbits)


def _draw_witnesses(rng: random.Random, candidate: int, rounds: int,
                    inline: bool) -> list[int]:
    """Make the ``_WITNESS_DRAWS`` draws ``randrange(2, candidate - 1)``
    would make, and return the first ``rounds`` as witnesses.

    With ``inline`` (see :func:`_draws_by_getrandbits`) the draws are
    ``random.Random._randbelow_with_getrandbits`` written out: the same
    ``getrandbits(k)`` calls with the same rejections, so the same stream,
    without two Python frames and the argument checks per draw.
    """
    if not inline:
        return [rng.randrange(2, candidate - 1)
                for _ in range(_WITNESS_DRAWS)][:rounds]
    width = candidate - 3
    k = width.bit_length()
    getrandbits = rng.getrandbits
    witnesses = []
    for drawn in range(_WITNESS_DRAWS):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        if drawn < rounds:
            witnesses.append(2 + r)
    return witnesses


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits (standard RSA practice), and the low bit is
    forced to 1 so candidates are odd.

    A returned number is composite with probability about ``2**-80`` or
    less.  ``_GENERATED_ROUNDS`` bounds it by ``2**-80`` for uniform odd
    ``bits``-bit numbers; forcing the second-highest bit halves that
    population and so at most doubles the bound.  The prime sizes of the
    RSA moduli this repository generates keep more than four bits of
    slack over that by HAC Fact 4.48 (256 bits: ``2**-84.6``, 384:
    ``2**-87.5``, 512: ``2**-88.6``, 1024: ``2**-89.6``); the tests derive
    the table from the Fact rather than trust it.

    Consumes ``rng`` as ``is_probable_prime(candidate, rng=rng)`` per
    candidate would: one ``getrandbits(bits)``, and after trial division
    ``_WITNESS_DRAWS`` ``randrange(2, candidate - 1)`` draws (see
    :func:`_draw_witnesses`).  Only the first ``_generated_rounds(bits)``
    of those witnesses are exponentiated, and none when ``_SIEVE_PRODUCT``
    already shows a factor.
    """
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    rng = rng or random.SystemRandom()
    top_bits = (1 << (bits - 1)) | (1 << (bits - 2))
    rounds = _generated_rounds(bits)
    inline_draws = _draws_by_getrandbits(rng)
    while True:
        candidate = rng.getrandbits(bits) | top_bits | 1
        if candidate < _DETERMINISTIC_BOUND:
            # Exact, and draws no witnesses.
            if is_probable_prime(candidate):
                return candidate
            continue
        if not all(candidate % p for p in _SMALL_PRIMES):
            continue
        # Draw first, sieve second: the other order would skip the draws
        # of the candidates the gcd rejects.
        witnesses = _draw_witnesses(rng, candidate, rounds, inline_draws)
        if (math.gcd(candidate, _SIEVE_PRODUCT) == 1
                and _passes_miller_rabin(candidate, witnesses)):
            return candidate


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises ValueError if none exists."""
    try:
        return pow(a, -1, m)
    except ValueError as exc:  # pragma: no cover - message normalization
        raise ValueError(f"{a} has no inverse modulo {m}") from exc


def lcm(a: int, b: int) -> int:
    """Least common multiple; used for the RSA Carmichael exponent."""
    return a // math.gcd(a, b) * b
