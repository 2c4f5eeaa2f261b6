"""RSA-512 key generation microbenchmark.

**Seed generator vs current, on the same rng stream** — the gateway makes
one ephemeral RSA-512 pair per message (paper section 4.4), so a key is
BcWAN's per-operation host cost.  The current ``generate_prime`` must
return the seed generator's keys (``tests/oracles/primes_reference.py``)
and leave its stream where the seed leaves it, while it tests a candidate
with one base-2 exponentiation and, if that passes, one strong Lucas test
(Baillie-PSW).  The gates are on those counts, which repeat exactly: at
most one exponentiation per composite survivor of trial division plus one
per prime, where the seed spends at least one and forty, and exactly one
Lucas test per base-2 survivor, each of them a prime.  The milliseconds
are printed for the record only, so the test also runs in CI's
``--benchmark-disable`` lane on a host whose clock cannot be trusted.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_header, print_row
from repro.crypto import primes
from tests.oracles import primes_reference
from tests.oracles.primes_reference import calls

KEYS = 50


def _generate(module):
    """``KEYS`` seeded keys through ``module.generate_prime``: their bytes
    (and the stream's next draw), ms per key, and the work counts."""
    start = time.perf_counter()
    keys, work = primes_reference.counted_keypairs(
        module, KEYS, random.Random(0x4B47))
    elapsed = time.perf_counter() - start
    return keys, elapsed / KEYS * 1e3, work


def test_keygen_same_keys_one_pow_per_candidate_one_lucas_per_prime():
    oracle_keys, oracle_ms, oracle_work = _generate(primes_reference)
    keys, ms, work = _generate(primes)
    found = calls(work, "primes")
    oracle_pows = calls(oracle_work, "_miller_rabin_witness")
    pows = calls(work, "_passes_base_2")
    lucas = calls(work, "_passes_strong_lucas")

    print_header(f"RSA-512 keygen, {KEYS} seeded keys: "
                 "seed generator vs current")
    print_row("(columns)", "ms/key", "modexp/key", "lucas/key")
    print_row("seed (40 rounds)", round(oracle_ms, 2),
              round(oracle_pows / KEYS, 1), 0)
    print_row("current (sieve + BPSW)", round(ms, 2), round(pows / KEYS, 1),
              round(lucas / KEYS, 2))
    print_row("ratio", round(oracle_ms / ms, 2), round(oracle_pows / pows, 2),
              "")

    assert keys == oracle_keys
    assert found == calls(oracle_work, "primes")
    assert pows <= oracle_pows - 39 * found, (
        f"{pows} exponentiations: more than one per candidate tested"
    )
    assert lucas == work["_passes_base_2", True] == found
    assert work["_passes_strong_lucas", True] == found
