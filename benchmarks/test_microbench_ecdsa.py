"""ECDSA microbenchmark: counted point operations, printed clocks.

**One verification core, cold and hot, against the two-multiply oracle** —
``repro.crypto.ecdsa`` computes ``u1*G + u2*Q`` in one place: ``u1*G`` from
the generator's table, ``u2`` as two GLV halves over multiples of ``Q``.
A key's first verifications (cold) pay one 128-doubling ladder over a
single row, in Jacobian coordinates; once promoted (hot) it pays no
doubling at all, and its ~92 table points are summed in affine
coordinates by ``_affine_sums``, one modular inversion per level of the
pairwise sum for every item of the call.

The gate is on *counts* of point doublings, additions and modular
inversions, which repeat exactly; the microseconds are printed for the
record only, so the test also runs in CI's ``--benchmark-disable`` lane
on a host whose clock cannot be trusted.  This is also the only place the
cold path is held: every ``python -m bench`` workload signs with a
handful of recurring keys (98-100 % of their verifications are by a
promoted key), so no benchmark workload covers a one-off key and the
halved ladder is pinned here, by count, not there.
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
    """Point operations and inversions ``call()`` spends, counted through
    the module.  Each group handed to ``_affine_sums`` costs one affine
    addition per point beyond its first; an inversion is one ``pow`` --
    one per ``_batch_inverse`` of a non-empty list, one per ``_to_affine``.
    """
    spent: Counter = Counter()
    with monkeypatch.context() as patch:
        for name, kind in _POINT_OPS.items():
            def counting(*args, _real=getattr(ecdsa, name), _kind=kind):
                spent[_kind] += 1
                return _real(*args)
            patch.setattr(ecdsa, name, counting)

        def affine_sums(groups, _real=ecdsa._affine_sums):
            added = sum(max(len(group) - 1, 0) for group in groups)
            spent["additions"] += added
            spent["affine additions"] += added
            return _real(groups)

        def batch_inverse(values, modulus, _real=ecdsa._batch_inverse):
            spent["inversions"] += bool(values)
            return _real(values, modulus)

        def to_affine(point, _real=ecdsa._to_affine):
            spent["inversions"] += 1
            return _real(point)

        patch.setattr(ecdsa, "_affine_sums", affine_sums)
        patch.setattr(ecdsa, "_batch_inverse", batch_inverse)
        patch.setattr(ecdsa, "_to_affine", to_affine)
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

    def verify_one(item):
        _public, digest, signature = item
        assert public.verify(digest, signature)

    def verify_all():
        assert all(ecdsa.verify_batch(items))

    # Cold: every verification is the key's first, its row build included.
    cold = _counted(monkeypatch, verify_each_as_first_use)
    cold_us = _us_per_item(verify_each_as_first_use)

    # Hot: promote the key, then count.
    _fresh_cache(monkeypatch)
    for _ in range(ecdsa._PROMOTE_AFTER):
        verify_each()
    assert ecdsa.cache_stats()["tables_built"] == 1
    hot_each = [_counted(monkeypatch, lambda item=item: verify_one(item))
                for item in items]
    hot = sum(hot_each, Counter())
    hot_us = _us_per_item(verify_each)
    batch = _counted(monkeypatch, verify_all)
    batch_us = _us_per_item(verify_all)

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
    print_row("(columns)", "doublings", "additions", "inversions",
              "us/call")
    for label, spent, micros in (("verify, first use (cold)", cold, cold_us),
                                 ("verify, promoted (hot)", hot, hot_us),
                                 (f"verify_batch of {SIGNATURES} (hot)",
                                  batch, batch_us),
                                 ("sign", sign, sign_us)):
        print_row(label, round(spent["doublings"] / SIGNATURES, 1),
                  round(spent["additions"] / SIGNATURES, 1),
                  round(spent["inversions"] / SIGNATURES, 2), micros)
    print_row("two-multiply oracle", "", "", "", oracle_us)
    print_row("key table", f"{build_ms:.2f} ms",
              f"{ecdsa._KEY_ROWS * ecdsa._ROW_BYTES} B",
              f"x{ecdsa._PROMOTE_AFTER} uses", "")

    # A plain ladder is 256 doublings; the parent's interleaved one paid
    # 256 and ~80 full additions.
    assert cold["doublings"] <= 140 * SIGNATURES
    assert cold["additions"] <= 110 * SIGNATURES
    # A hot verification: all its additions affine, s**-1, then one
    # inversion per level of its ~92 points' pairwise sum (7 levels), and
    # no z**-1.
    for spent in hot_each:
        assert spent["doublings"] == 0
        assert spent["additions"] == spent["affine additions"] <= 105
        assert spent["inversions"] <= 8
    # A batch shares each of those inversions among all its items.
    assert batch["doublings"] == 0
    assert batch["additions"] == batch["affine additions"]
    assert batch["additions"] <= 105 * SIGNATURES
    assert batch["inversions"] <= 10
    assert sign["doublings"] == 0
    assert sign["additions"] <= 34 * SIGNATURES
