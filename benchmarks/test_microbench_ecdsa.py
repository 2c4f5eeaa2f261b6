"""ECDSA verification microbenchmark.

**Single ECDSA verify, Shamir vs double-multiply** — the interleaved
ladder shares one doubling chain between ``u1*G`` and ``u2*Q`` and must
beat the two-multiply reference.  The timing loop is hand-rolled so the
gate also runs in CI's ``--benchmark-disable`` lane.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_header, print_row
from repro.crypto import ecdsa
from tests.oracles.ecdsa_reference import verify_double_multiply

VERIFY_ROUNDS = 60


def _time_verify(fn, pub, digest, sig) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(VERIFY_ROUNDS):
            assert fn(pub, digest, sig)
        best = min(best, (time.perf_counter() - start) / VERIFY_ROUNDS)
    return best


def test_shamir_vs_double_multiply():
    rng = random.Random(0x54A3)
    key = ecdsa.generate_private_key(rng)
    pub = key.public_key
    digest = rng.getrandbits(256).to_bytes(32, "big")
    sig = key.sign(digest)
    pub.verify(digest, sig)  # warm the per-pubkey wNAF table

    shamir = _time_verify(lambda p, d, s: p.verify(d, s), pub, digest, sig)
    naive = _time_verify(verify_double_multiply, pub, digest, sig)

    print_header("ECDSA verify: interleaved Shamir vs double-multiply")
    print_row("double-multiply", round(naive * 1e6, 1))
    print_row("shamir (warm table)", round(shamir * 1e6, 1))
    print_row("(columns)", "us/verify")
    print_row("speedup", round(naive / shamir, 2))

    # The ladder shares 256 doublings between both scalars; it must not
    # lose to the two-multiply reference (1.05x floor leaves timing noise
    # room while still catching a regression to two full ladders).
    assert naive / shamir >= 1.05, (
        f"Shamir path only {naive / shamir:.2f}x vs double-multiply"
    )
