"""RSA-512 key generation microbenchmark.

**Seed generator vs current, on the same rng stream** — the gateway makes
one ephemeral RSA-512 pair per message (paper section 4.4), so a key is
BcWAN's per-operation host cost.  The current ``generate_prime`` must
return the seed generator's keys (``tests/oracles/primes_reference.py``)
while spending at most half its Miller-Rabin exponentiations.  The gate is
on that count, which repeats exactly; the milliseconds are printed for
the record only, so the test also runs in CI's ``--benchmark-disable``
lane on a host whose clock cannot be trusted.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_header, print_row
from repro.crypto import primes
from tests.oracles import primes_reference

KEYS = 50


def _generate(module) -> tuple[list[bytes], float, float]:
    """``KEYS`` seeded keys through ``module.generate_prime``: their bytes
    (and the stream's next draw), ms per key, exponentiations per key."""
    start = time.perf_counter()
    keys, spent = primes_reference.counted_keypairs(
        module, KEYS, random.Random(0x4B47))
    elapsed = time.perf_counter() - start
    return keys, elapsed / KEYS * 1e3, spent / KEYS


def test_keygen_same_keys_half_the_exponentiations():
    oracle_keys, oracle_ms, oracle_pows = _generate(primes_reference)
    keys, ms, pows = _generate(primes)

    print_header(f"RSA-512 keygen, {KEYS} seeded keys: seed generator vs current")
    print_row("(columns)", "ms/key", "modexp/key")
    print_row("seed (40 rounds)", round(oracle_ms, 2), round(oracle_pows, 1))
    print_row("current (table + sieve)", round(ms, 2), round(pows, 1))
    print_row("ratio", round(oracle_ms / ms, 2), round(oracle_pows / pows, 2))

    assert keys == oracle_keys
    assert oracle_pows / pows >= 2, (
        f"only {oracle_pows / pows:.2f}x fewer exponentiations than the seed"
    )
