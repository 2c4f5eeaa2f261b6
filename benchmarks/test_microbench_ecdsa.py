"""ECDSA microbenchmark: counted point operations, printed clocks.

**One verification core, cold and hot, against the two-multiply oracle** —
``repro.crypto.ecdsa`` computes ``u1*G + u2*Q`` in one place: ``u1*G`` from
the generator's table, ``u2`` as two GLV halves over multiples of ``Q``.
A key's first verifications (cold) pay one 128-doubling ladder over a
single row; once promoted (hot) it pays no doubling at all.

The gate is on *counts* of point doublings and additions, which repeat
exactly; the microseconds are printed for the record only, so the test
also runs in CI's ``--benchmark-disable`` lane on a host whose clock
cannot be trusted.  This is also the only place the cold path is held:
every ``python -m bench`` workload signs with a handful of recurring keys
(98-100 % of their verifications are by a promoted key), so no benchmark
workload covers a one-off key and the halved ladder is pinned here, by
count, not there.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from benchmarks.conftest import print_header, print_row
from repro.crypto import ecdsa
from tests.oracles.ecdsa_reference import verify_double_multiply

SIGNATURES = 32
_POINT_OPS = {"_jacobian_double": "doublings", "_jacobian_add": "additions",
              "_jacobian_add_affine": "additions"}


@pytest.fixture
def signed():
    rng = random.Random(0x54A3)
    key = ecdsa.generate_private_key(rng)
    digests = [rng.getrandbits(256).to_bytes(32, "big")
               for _ in range(SIGNATURES)]
    return key, [(key.public_key, digest, key.sign(digest))
                 for digest in digests]


def _counted(monkeypatch, call) -> Counter:
    """Point operations ``call()`` spends, counted through the module."""
    spent: Counter = Counter()
    with monkeypatch.context() as patch:
        for name, kind in _POINT_OPS.items():
            def counting(*args, _real=getattr(ecdsa, name), _kind=kind):
                spent[_kind] += 1
                return _real(*args)
            patch.setattr(ecdsa, name, counting)
        call()
    return spent


def _us_per_item(call, items: int = SIGNATURES) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best / items * 1e6, 1)


def _fresh_cache(monkeypatch) -> None:
    monkeypatch.setattr(ecdsa, "_key_cache", ecdsa._KeyCache())


def test_verification_core_point_operations(monkeypatch, signed):
    key, items = signed
    public = key.public_key

    def verify_each():
        for _public, digest, signature in items:
            assert public.verify(digest, signature)

    def verify_each_as_first_use():
        for _public, digest, signature in items:
            _fresh_cache(monkeypatch)
            assert public.verify(digest, signature)

    # Cold: every verification is the key's first, its row build included.
    cold = _counted(monkeypatch, verify_each_as_first_use)
    cold_us = _us_per_item(verify_each_as_first_use)

    # Hot: promote the key, then count.
    _fresh_cache(monkeypatch)
    for _ in range(ecdsa._PROMOTE_AFTER):
        verify_each()
    assert ecdsa.cache_stats()["tables_built"] == 1
    hot = _counted(monkeypatch, verify_each)
    hot_us = _us_per_item(verify_each)
    batch_us = _us_per_item(lambda: ecdsa.verify_batch(items))

    sign = _counted(monkeypatch, lambda: [
        key.sign(digest) for _public, digest, _signature in items])
    sign_us = _us_per_item(lambda: [
        key.sign(digest) for _public, digest, _signature in items])

    oracle_us = _us_per_item(lambda: [
        verify_double_multiply(*item) for item in items])
    start = time.perf_counter()
    ecdsa._build_rows((public.x, public.y, 1),
                      ecdsa._KEY_DIGIT_BITS, ecdsa._KEY_ROWS)
    build_ms = (time.perf_counter() - start) * 1e3

    print_header(f"ECDSA, {SIGNATURES} signatures under one key: "
                 "point operations per call, and the clock")
    print_row("(columns)", "doublings", "additions", "us/call")
    for label, spent, micros in (("verify, first use (cold)", cold, cold_us),
                                 ("verify, promoted (hot)", hot, hot_us),
                                 ("sign", sign, sign_us)):
        print_row(label, round(spent["doublings"] / SIGNATURES, 1),
                  round(spent["additions"] / SIGNATURES, 1), micros)
    print_row(f"verify_batch of {SIGNATURES} (hot)", "", "", batch_us)
    print_row("two-multiply oracle", "", "", oracle_us)
    print_row("key table", f"{build_ms:.2f} ms",
              f"{ecdsa._KEY_ROWS * ecdsa._ROW_BYTES} B",
              f"x{ecdsa._PROMOTE_AFTER} uses")

    # A plain ladder is 256 doublings; the parent's interleaved one paid
    # 256 and ~80 full additions.
    assert cold["doublings"] <= 140 * SIGNATURES
    assert cold["additions"] <= 110 * SIGNATURES
    assert hot["doublings"] == 0
    assert hot["additions"] <= 105 * SIGNATURES
    assert sign["doublings"] == 0
    assert sign["additions"] <= 34 * SIGNATURES
