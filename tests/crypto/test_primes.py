"""Baillie-PSW and prime generation.

``is_probable_prime`` is held to the published pseudoprime lists below
10**5, where each of its two tests has composites that pass it and none
pass both.  ``generate_prime`` is held to the seed generator kept in
``tests/oracles/primes_reference.py``: it consumes its rng and returns its
primes exactly as that one does, at one base-2 exponentiation per
candidate it tests and one Lucas test per prime.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import primes
from repro.crypto.primes import generate_prime, is_probable_prime, lcm, modinv
from tests.oracles import primes_reference

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 89) - 1, (1 << 127) - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 100, 7917, 104730, (1 << 89) + 1]
# Carmichael numbers fool Fermat tests; Baillie-PSW must reject them.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]

LIMIT = 10**5
# OEIS A217255: the strong Lucas pseudoprimes (Selfridge's method A).
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569,
                             25199, 40309, 58519, 75077, 97439]
# OEIS A001262: the strong pseudoprimes to base 2.
STRONG_BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 15841, 29341,
                              42799, 49141, 52633, 65281, 74665, 80581,
                              85489, 88357, 90751]


def _is_prime_below_limit() -> bytearray:
    sieve = bytearray([1]) * LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(LIMIT) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, LIMIT, i)))
    return sieve


IS_PRIME = _is_prime_below_limit()
ODD_PRIMES = [n for n in range(3, LIMIT, 2) if IS_PRIME[n]]
ODD_COMPOSITES = [n for n in range(9, LIMIT, 2) if not IS_PRIME[n]]


@pytest.mark.parametrize("n", KNOWN_PRIMES)
def test_known_primes(n):
    assert is_probable_prime(n)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites(n):
    assert not is_probable_prime(n)


@pytest.mark.parametrize("n", CARMICHAEL)
def test_carmichael_numbers_rejected(n):
    assert not is_probable_prime(n)


def test_deterministic_below_bound_matches_sympy_free_check():
    """Cross-check every n below the limit against a sieve (Baillie-PSW
    is exact below 2**64)."""
    for n in range(LIMIT):
        assert is_probable_prime(n) == IS_PRIME[n], n


# -- the two tests, against the published pseudoprime lists -------------------

def test_every_odd_prime_below_the_limit_passes_both_tests():
    assert all(primes._passes_base_2(p) for p in ODD_PRIMES)
    assert all(primes._passes_strong_lucas(p) for p in ODD_PRIMES)


def test_composites_passing_the_lucas_test_are_a217255():
    assert [n for n in ODD_COMPOSITES
            if primes._passes_strong_lucas(n)] == STRONG_LUCAS_PSEUDOPRIMES


def test_composites_passing_the_base_2_round_are_a001262():
    assert [n for n in ODD_COMPOSITES
            if primes._passes_base_2(n)] == STRONG_BASE_2_PSEUDOPRIMES


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES
                         + STRONG_BASE_2_PSEUDOPRIMES)
def test_each_pseudoprime_fails_the_other_test(n):
    assert (primes._passes_base_2(n)
            != primes._passes_strong_lucas(n))
    assert not is_probable_prime(n)


@pytest.mark.parametrize("p", [1093, 3511])
def test_wieferich_squares_pass_base_2_and_fail_the_square_check(p):
    """The square of a Wieferich prime is a strong base-2 pseudoprime;
    the perfect-square check, not the Jacobi search, turns it away (no
    ``D`` has symbol -1 against a square)."""
    assert primes._passes_base_2(p * p)
    assert not primes._passes_strong_lucas(p * p)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_perfect_squares_rejected(bits):
    p = generate_prime(bits, random.Random(bits))
    assert not is_probable_prime(p * p)
    assert not primes._passes_strong_lucas(p * p)


def test_jacobi_symbol_is_eulers_criterion_at_primes():
    for p in ODD_PRIMES[:200]:
        for a in range(-30, 30):
            euler = pow(a, (p - 1) // 2, p)
            expected = {0: 0, 1: 1, p - 1: -1}[euler]
            assert primes._jacobi(a, p) == expected, (a, p)


# -- generate_prime -----------------------------------------------------------

@pytest.mark.parametrize("bits", [64, 128, 256])
def test_generate_prime_bit_length(bits):
    p = generate_prime(bits, random.Random(1))
    assert p.bit_length() == bits
    assert is_probable_prime(p)
    # Top two bits forced: guarantees full-size RSA moduli.
    assert (p >> (bits - 2)) == 0b11


def test_generate_prime_deterministic_with_seed():
    assert generate_prime(128, random.Random(9)) == generate_prime(128, random.Random(9))


def test_generate_prime_rejects_tiny():
    with pytest.raises(ValueError):
        generate_prime(4)


def test_smallest_size_is_the_first_whose_candidates_pass_the_sieve():
    """Below 14 bits every prime of the size divides one of the two
    products, so no candidate could ever be returned."""
    with pytest.raises(ValueError):
        generate_prime(primes._MIN_BITS - 1)
    p = generate_prime(primes._MIN_BITS, random.Random(0))
    assert IS_PRIME[p] and p > 1 << 13


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=50)
def test_modinv_property(m):
    a = 12345 % m
    if a == 0 or math.gcd(a, m) != 1:
        return
    inv = modinv(a, m)
    assert (a * inv) % m == 1


def test_modinv_no_inverse():
    with pytest.raises(ValueError):
        modinv(6, 9)


@pytest.mark.parametrize("a,b,expected", [(4, 6, 12), (7, 13, 91),
                                          (10, 10, 10), (1, 99, 99)])
def test_lcm(a, b, expected):
    assert lcm(a, b) == expected


# -- the seeded-stream contract: same primes, same rng state ----------------

@pytest.mark.parametrize("bits", [82, 100, 128, 256, 512])
def test_generate_prime_matches_oracle_and_its_stream(bits):
    """From 82 bits up the seed generator draws 40 witnesses for every
    candidate that survives trial division; so does the current one."""
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert (generate_prime(bits, rng)
                    == primes_reference.generate_prime(bits, oracle_rng))
            assert rng.getstate() == oracle_rng.getstate(), (bits, seed)


@pytest.mark.parametrize("bits", [82, 256, 512])
def test_inline_witness_draws_are_randranges(bits):
    """The inline loop makes the draws ``randrange(2, candidate - 1)``
    makes, all ``_WITNESS_DRAWS`` of them."""
    for seed in range(10):
        candidate = random.Random(-seed).getrandbits(bits) | 1 << (bits - 1)
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(primes._WITNESS_DRAWS):
            reference.randrange(2, candidate - 1)
        primes._draw_witnesses(rng, candidate, True)
        assert rng.getstate() == reference.getstate()


class _FloatOnlyRandom(random.Random):
    """Supplies only ``random()``: ``randrange`` then draws through
    ``_randbelow_without_getrandbits``, so the inline getrandbits loop
    would change the stream and must not be used."""

    def random(self):
        return super().random()


@pytest.mark.filterwarnings("ignore:Underlying random")
@pytest.mark.parametrize("bits", [100, 256])
def test_generator_without_getrandbits_draws_through_randrange(bits):
    assert not primes._draws_by_getrandbits(_FloatOnlyRandom(0))
    assert primes._draws_by_getrandbits(random.Random(0))
    for seed in range(5):
        rng, oracle_rng = _FloatOnlyRandom(seed), _FloatOnlyRandom(seed)
        assert (generate_prime(bits, rng)
                == primes_reference.generate_prime(bits, oracle_rng))
        assert rng.getstate() == oracle_rng.getstate(), (bits, seed)


KEY_SEEDS = range(200)


def test_keypairs_match_oracle_at_under_half_the_exponentiations():
    """One RSA-512 key from each of 200 seeds: the oracle's bytes and the
    oracle's next draw.  Counted, not timed: one base-2 exponentiation at
    most per composite survivor of trial division and one per prime,
    where the oracle spends at least one and forty; and one Lucas test
    per candidate that passes base 2, each of them a prime."""
    work, oracle_work = Counter(), Counter()
    for seed in KEY_SEEDS:
        keys, spent = primes_reference.counted_keypairs(
            primes, 1, random.Random(seed))
        oracle_keys, oracle_spent = primes_reference.counted_keypairs(
            primes_reference, 1, random.Random(seed))
        assert keys == oracle_keys, seed
        work += spent
        oracle_work += oracle_spent
    found = primes_reference.calls(work, "primes")
    assert found == primes_reference.calls(oracle_work, "primes")
    assert found >= 2 * len(KEY_SEEDS)
    lucas = primes_reference.calls(work, "_passes_strong_lucas")
    assert lucas == work["_passes_base_2", True] == found
    assert work["_passes_strong_lucas", True] == found
    pows = primes_reference.calls(work, "_passes_base_2")
    oracle_pows = primes_reference.calls(oracle_work, "_miller_rabin_witness")
    assert 0 < pows <= oracle_pows - 39 * found
    assert oracle_pows >= 2 * pows


def test_sieve_product_is_the_primes_from_211_to_8192():
    expected = [n for n in range(200, (1 << 13) + 1)
                if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert expected[0] == 211 and len(expected) == 982
    assert primes._SIEVE_PRODUCT == math.prod(expected)


def test_trial_product_rejects_what_trial_division_by_46_primes_did():
    small = [n for n in range(2, 200)
             if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert len(small) == 46 and primes._TRIAL_PRODUCT == math.prod(small)
    rng = random.Random(46)
    for _ in range(2000):
        candidate = rng.getrandbits(256) | 3 << 254 | 1
        assert ((math.gcd(candidate, primes._TRIAL_PRODUCT) == 1)
                == all(candidate % p for p in small))


# -- composites built to fool Miller-Rabin ----------------------------------

@pytest.mark.parametrize("bits", [128, 256])
def test_many_liar_composites_rejected(bits):
    """n = p(2p - 1) with both factors prime has about n/8 strong liars,
    near the most a composite can have; Baillie-PSW rejects it."""
    rng = random.Random(bits)
    while True:
        p = generate_prime(bits // 2, rng)
        if is_probable_prime(2 * p - 1):
            break
    n = p * (2 * p - 1)
    assert not is_probable_prime(n)
