"""Miller-Rabin and prime generation.

``generate_prime`` is held to two contracts here: it consumes its rng and
returns its primes exactly as the seed generator kept in
``tests/oracles/primes_reference.py`` does, and the Miller-Rabin rounds
it runs instead of that generator's 40 are derived from the published
error bound, not asserted.
"""

from __future__ import annotations

import inspect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import primes
from repro.crypto.primes import generate_prime, is_probable_prime, lcm, modinv
from tests.oracles import primes_reference

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 89) - 1, (1 << 127) - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 100, 7917, 104730, (1 << 89) + 1]
# Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]


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
    """Cross-check small range against trial division."""
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    for n in range(2, 2000):
        assert is_probable_prime(n) == trial(n), n


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


# -- the seeded-stream contract: same primes, same rng state --------------------

@pytest.mark.parametrize("bits", [64, 82, 100, 128, 256, 512])
def test_generate_prime_matches_oracle_and_its_stream(bits):
    """64 exercises the deterministic-witness path, 82 the smallest size
    that draws witnesses (no table row: all 40 run), the rest one table
    row each."""
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert (generate_prime(bits, rng)
                    == primes_reference.generate_prime(bits, oracle_rng))
            assert rng.getstate() == oracle_rng.getstate(), (bits, seed)


@pytest.mark.parametrize("bits,rounds", [(82, 40), (256, 12), (512, 6)])
def test_inline_witness_draws_are_randranges(bits, rounds):
    """The inline loop returns the first ``rounds`` of the draws
    ``randrange(2, candidate - 1)`` makes, and makes all of them."""
    for seed in range(10):
        candidate = random.Random(-seed).getrandbits(bits) | 1 << (bits - 1)
        rng, reference = random.Random(seed), random.Random(seed)
        drawn = [reference.randrange(2, candidate - 1)
                 for _ in range(primes._WITNESS_DRAWS)]
        assert (primes._draw_witnesses(rng, candidate, rounds, True)
                == drawn[:rounds])
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


def test_keypairs_match_oracle_at_under_half_the_exponentiations():
    """100 RSA-512 keys from ``Random(5)``: the oracle's bytes, the
    oracle's next draw, and -- counted, not timed -- at most 5 000
    Miller-Rabin exponentiations where the oracle spends 11 846."""
    keys, spent = primes_reference.counted_keypairs(
        primes, 100, random.Random(5))
    oracle_keys, oracle_spent = primes_reference.counted_keypairs(
        primes_reference, 100, random.Random(5))
    assert keys == oracle_keys
    assert 0 < spent <= 5000
    assert oracle_spent >= 2 * spent


# -- the error bound: the round table is derived, not asserted -----------------

def _log2_sum(*terms):
    top = max(terms)
    return top + math.log2(sum(2 ** (term - top) for term in terms))


def _log2_error_bound(k, t):
    """log2 of the best applicable bound of HAC Fact 4.48 on p(k, t): the
    probability that a uniformly random odd ``k``-bit integer which passes
    ``t`` random-base Miller-Rabin rounds is composite."""
    lg = math.log2
    bounds = []
    if t == 1 and k >= 2:                                           # (i)
        bounds.append(2 * lg(k) + 2 * (2 - math.sqrt(k)))
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):       # (ii)
        bounds.append(1.5 * lg(k) + t - 0.5 * lg(t)
                      + 2 * (2 - math.sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:                             # (iii)
        bounds.append(_log2_sum(lg(7 / 20 * k) - 5 * t,
                                lg(1 / 7) + 3.75 * lg(k) - k / 2 - 2 * t,
                                lg(12 * k) - k / 4 - 3 * t))
    if t >= k / 4 and k >= 21:                                      # (iv)
        bounds.append(lg(1 / 7) + 3.75 * lg(k) - k / 2 - 2 * t)
    return min(bounds)


@pytest.mark.parametrize("floor,rounds", primes._GENERATED_ROUNDS)
def test_round_table_is_the_least_that_meets_two_to_minus_eighty(floor, rounds):
    """Every row of HAC Table 4.4, re-derived at the row's smallest size
    (the bound only improves with size): the rounds reach 2**-80 and one
    round fewer would not."""
    assert _log2_error_bound(floor, rounds) <= -80
    assert _log2_error_bound(floor, rounds - 1) > -80


@pytest.mark.parametrize("bits,expected", [(256, 12), (384, 8), (512, 6),
                                           (1024, 3)])
def test_generated_sizes_keep_four_bits_of_slack(bits, expected):
    """Candidates have their top two bits forced, not just the top one:
    half the population the bound is stated for, so at most twice the
    bound (one bit).  The prime sizes of every RSA modulus the repo
    generates (512, 768, 1024, 2048) sit more than four bits under 2**-80
    -- 256: -84.6, 384: -87.5, 512: -88.6, 1024: -89.6."""
    assert primes._generated_rounds(bits) == expected
    assert _log2_error_bound(bits, expected) < -84


def test_rounds_outside_the_table_and_the_worst_case_default():
    assert primes._WITNESS_DRAWS == 40
    assert max(rounds for _, rounds in primes._GENERATED_ROUNDS) <= 40
    floors = [floor for floor, _ in primes._GENERATED_ROUNDS]
    assert floors == sorted(floors, reverse=True)
    # 82..99 bits draw witnesses but have no row: every drawn one runs.
    assert {primes._generated_rounds(bits) for bits in range(82, 100)} == {40}
    assert primes._generated_rounds(100) == 27
    assert primes._generated_rounds(4096) == 2
    assert inspect.signature(
        is_probable_prime).parameters["rounds"].default == 40


def test_sieve_product_is_the_primes_from_211_to_8192():
    expected = [n for n in range(200, (1 << 13) + 1)
                if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert expected[0] == 211 and len(expected) == 982
    assert primes._SIEVE_PRODUCT == math.prod(expected)


# -- hostile input: why the bases stay random ----------------------------------

@pytest.mark.parametrize("bits", [128, 256])
def test_many_liar_composites_rejected(bits):
    """n = p(2p - 1) with both factors prime has about n/8 strong liars,
    near the most a composite can have, so a fixed base set could be
    prepared against; forty random bases still reject it."""
    rng = random.Random(bits)
    while True:
        p = generate_prime(bits // 2, rng)
        if is_probable_prime(2 * p - 1, rng=rng):
            break
    n = p * (2 * p - 1)
    for seed in range(20):
        assert not is_probable_prime(n, rng=random.Random(seed))
