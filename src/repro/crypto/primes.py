"""Prime generation and modular arithmetic for the RSA substrate.

The module has one primality predicate, :func:`is_probable_prime`:
Baillie-PSW, which is one strong Miller-Rabin round to base 2 followed by
one strong Lucas test with Selfridge's parameters (Baillie & Wagstaff
1980; the Lucas test as FIPS 186-4 App. C.3.3 specifies it).  The two
tests fail on unrelated composites, and no composite is known to pass
both.  None below ``2**64`` does: every base-2 strong pseudoprime up to
there has been checked.  So the answer is exact wherever an exhaustive
check reaches, and above that its error is BPSW's record, not a proved
bound.  The repository's key sizes draw 256-bit and larger primes.

Prime generation draws candidates *and witnesses* from a caller-supplied
RNG so that simulations are bit-for-bit reproducible (see
:mod:`repro.sim.rng`).  What it draws is a contract with every seeded
stream that generates keys (``_WITNESS_DRAWS``).  What it spends on
testing a candidate is not: the drawn witnesses go unused.
"""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "modinv",
    "lcm",
]

# The seeded-stream contract: generate_prime draws this many witnesses
# randrange(2, candidate - 1) for every candidate that survives trial
# division, and uses none of them.  The gateway streams that generate keys
# are shared with other draws, and every committed digest and trace
# depends on their state.  Dropping the draws needs those streams re-keyed,
# and the re-key is parked: measured, it raised the failed exchanges on
# regions_lossy seed 11 (6 -> 8) and light_fig5 seed 23 (11 -> 14)
# whichever generator drew from the new streams (EXPERIMENTS.md, "ROADMAP
# item 2, measured"; ROADMAP 2).
_WITNESS_DRAWS = 40


def _primes_between(low: int, high: int) -> list[int]:
    """Primes ``p`` with ``low < p <= high`` (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (high + 1)
    for i in range(2, math.isqrt(high) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, high + 1, i)))
    return [n for n in range(low + 1, high + 1) if sieve[n]]


# Trial division by the 46 primes up to 199, as one gcd against their
# product: it rejects what dividing by each would, and draws nothing.
_TRIAL_PRODUCT = math.prod(_primes_between(1, 199))

# Product of the primes from 211 to 2**13: one gcd (about ten
# microseconds) settles what a 256-bit exponentiation (over a hundred)
# would otherwise be spent on for two in five of the composite survivors.
# The saving is flat from 2**11 to 2**14 and gone by 2**16 (EXPERIMENTS.md,
# PR 20), so the bound is a constant, not a setting.
_SIEVE_PRODUCT = math.prod(_primes_between(199, 1 << 13))

# The least size whose candidates (at least 3 * 2**(bits - 2)) all exceed
# 2**13.  Below it every prime a candidate can be divides one of the two
# products, so no candidate would ever be returned.
_MIN_BITS = 14


def _passes_base_2(n: int) -> bool:
    """One strong Miller-Rabin round to base 2 for the odd ``n > 2``.
    One modular exponentiation."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a / n)`` for odd ``n > 0``."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _passes_strong_lucas(n: int) -> bool:
    """The strong Lucas test for the odd ``n > 2`` (FIPS 186-4 C.3.3).

    Selfridge's method A picks ``D`` as the first of 5, -7, 9, -11, ...
    with Jacobi symbol ``(D / n) = -1``, and ``P = 1, Q = (1 - D) / 4``.
    ``n`` passes if, with ``n + 1 = d * 2**s`` and ``d`` odd,
    ``U_d = 0`` or ``V_(d * 2**r) = 0 (mod n)`` for some ``r < s``.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has symbol -1: the search would not end
    D = 5
    while (symbol := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if symbol == 0:
        # |D| shares a factor with n.  That |D| is n itself only if n is
        # prime: a composite's least prime factor >= 5 comes earlier in
        # the sequence, and 3**k is a square or has (5 / 3**k) = -1.
        return n == abs(D)
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q**k from k = 1 along the bits of d: a doubling for
    # every bit, then k + 1 for a set one (halving mod n, P = 1).
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, V + D * U
            if U & 1:
                U += n
            if V & 1:
                V += n
            U >>= 1
            V >>= 1
            Qk = Qk * Q % n
    if U % n == 0:
        return True
    V %= n
    for _ in range(s):
        if V == 0:
            return True
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: whether ``n`` passes a strong base-2 round and a strong
    Lucas test.  Exact below ``2**64``; no composite above is known to
    pass."""
    if n < 3 or not n & 1:
        return n == 2
    return _passes_base_2(n) and _passes_strong_lucas(n)


def _draws_by_getrandbits(rng: random.Random) -> bool:
    """Whether ``rng.randrange(2, n)`` is :class:`random.Random`'s own:
    ``2 + _randbelow_with_getrandbits(n - 2)``.  A subclass that supplies
    only ``random()`` gets ``_randbelow_without_getrandbits`` instead."""
    cls = type(rng)
    return (getattr(cls, "randrange", None) is random.Random.randrange
            and getattr(cls, "_randbelow", None)
            is random.Random._randbelow_with_getrandbits)


def _draw_witnesses(rng: random.Random, candidate: int,
                    inline: bool) -> None:
    """Make the ``_WITNESS_DRAWS`` draws ``randrange(2, candidate - 1)``
    would make, and keep none of them.

    With ``inline`` (see :func:`_draws_by_getrandbits`) the draws are
    ``random.Random._randbelow_with_getrandbits`` written out: the same
    ``getrandbits(k)`` calls with the same rejections, so the same stream,
    without two Python frames and the argument checks per draw.
    """
    if not inline:
        for _ in range(_WITNESS_DRAWS):
            rng.randrange(2, candidate - 1)
        return
    width = candidate - 3
    k = width.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(_WITNESS_DRAWS):
        while getrandbits(k) >= width:
            pass


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits (standard RSA practice), and the low bit is
    forced to 1 so candidates are odd.

    A candidate that no prime up to ``2**13`` divides is returned if it
    passes :func:`is_probable_prime`: one exponentiation to base 2, and
    one strong Lucas test for each candidate that passes that.

    Consumes ``rng`` as the 40-round Miller-Rabin generator it replaced
    did per candidate: one ``getrandbits(bits)``, and after trial division
    by the primes up to 199, ``_WITNESS_DRAWS`` ``randrange(2,
    candidate - 1)`` draws (see :func:`_draw_witnesses`), whether or not
    the candidate goes on to the test.
    """
    if bits < _MIN_BITS:
        raise ValueError(f"prime size too small: {bits} bits")
    rng = rng or random.SystemRandom()
    top_bits = (1 << (bits - 1)) | (1 << (bits - 2))
    inline_draws = _draws_by_getrandbits(rng)
    while True:
        candidate = rng.getrandbits(bits) | top_bits | 1
        if math.gcd(candidate, _TRIAL_PRODUCT) != 1:
            continue
        # Draw first, sieve second: the other order would skip the draws
        # of the candidates the gcd rejects.
        _draw_witnesses(rng, candidate, inline_draws)
        if (math.gcd(candidate, _SIEVE_PRODUCT) == 1
                and is_probable_prime(candidate)):
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
