"""ECDSA microbenchmark: counted point operations, printed clocks.

**One verification core, first use, hot and wide, against the
two-multiply oracle** — ``repro.crypto.ecdsa`` computes ``u1*G + u2*Q`` in
one place: ``u1*G`` from the generator's table, ``u2`` as two GLV halves
over multiples of ``Q``.  A key's first verification builds its 4-bit
table; from then on (hot) it pays no doubling at all, and its ~92 points
are summed in affine coordinates by ``_affine_sums``, one modular
inversion per level of the pairwise sum for every item of the call; once
widened (wide) the same sum runs over an 8-bit table, ~64 points.

The gate is on *counts* of table builds, point doublings, additions and
modular inversions, which repeat exactly (a build's own point operations
are counted as the build, not as the verification's); the microseconds
are printed for the record only, so the test also runs in CI's
``--benchmark-disable`` lane on a host whose clock cannot be trusted.  A
first use's clock, its build included, is printed beside the
two-multiply oracle's.  The printout ends with the widening's rent-or-buy
row — the 8-bit table's build time, what it saves per verification over
a hot one alone and in a batch of 32, and the uses that repay it — from
which ``_WIDEN_AFTER`` is derived.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter

import pytest

from benchmarks.conftest import print_header, print_row
from repro.crypto import ecdsa
from tests.oracles.ecdsa_reference import verify_double_multiply

SIGNATURES = 32
ROUNDS = 7
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
    """Table builds, point operations and inversions ``call()`` spends,
    counted through the module.  A build is counted by its digit width,
    and the operations inside it are not counted again.  Each group handed
    to ``_affine_sums`` costs one affine addition per point beyond its
    first; an inversion is one ``pow`` -- one per ``_batch_inverse`` of a
    non-empty list, one per ``_to_affine``.
    """
    spent: Counter = Counter()
    building = []
    with monkeypatch.context() as patch:
        for name, kind in _POINT_OPS.items():
            def counting(*args, _real=getattr(ecdsa, name), _kind=kind):
                spent[_kind] += not building
                return _real(*args)
            patch.setattr(ecdsa, name, counting)

        def build_rows(base, bits, count, _real=ecdsa._build_rows):
            spent[f"{bits}-bit builds"] += 1
            building.append(bits)
            try:
                return _real(base, bits, count)
            finally:
                building.pop()

        def affine_sums(groups, _real=ecdsa._affine_sums):
            added = sum(max(len(group) - 1, 0) for group in groups)
            spent["additions"] += added
            spent["affine additions"] += added
            return _real(groups)

        def batch_inverse(values, modulus, _real=ecdsa._batch_inverse):
            spent["inversions"] += bool(values) and not building
            return _real(values, modulus)

        def to_affine(point, _real=ecdsa._to_affine):
            spent["inversions"] += 1
            return _real(point)

        patch.setattr(ecdsa, "_build_rows", build_rows)
        patch.setattr(ecdsa, "_affine_sums", affine_sums)
        patch.setattr(ecdsa, "_batch_inverse", batch_inverse)
        patch.setattr(ecdsa, "_to_affine", to_affine)
        call()
    return spent


def _clock(call) -> float:
    """Seconds ``call()`` takes, once."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _fresh_cache(monkeypatch) -> None:
    monkeypatch.setattr(ecdsa, "_key_cache", ecdsa._KeyCache())


_NEVER = 1 << 62


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

    def per_item(call):
        return [_counted(monkeypatch, lambda item=item: call(item))
                for item in items]

    def first_use(item):
        _fresh_cache(monkeypatch)
        return _counted(monkeypatch, lambda: verify_one(item))

    # First use: every verification is the key's first, and builds its
    # 4-bit table.
    first_each = [first_use(item) for item in items]

    # Hot: the table the first use built, the count held short of the
    # widening.
    _fresh_cache(monkeypatch)
    verify_one(items[0])
    assert ecdsa.cache_stats()["tables_built"] == 1
    hot_cache = ecdsa._key_cache
    with monkeypatch.context() as patch:
        patch.setattr(ecdsa, "_WIDEN_AFTER", _NEVER)
        hot_each = per_item(verify_one)
        batch = _counted(monkeypatch, verify_all)
    assert ecdsa.cache_stats()["wide_tables"] == 0

    # Wide: the key's _WIDEN_AFTER-th use builds its 8-bit table.
    _fresh_cache(monkeypatch)
    for use in range(ecdsa._WIDEN_AFTER):
        verify_one(items[use % SIGNATURES])
    assert ecdsa.cache_stats()["tables_built"] == 2
    assert ecdsa.cache_stats()["wide_tables"] == 1
    wide_cache = ecdsa._key_cache
    wide_each = per_item(verify_one)
    wide_batch = _counted(monkeypatch, verify_all)

    sign = _counted(monkeypatch, lambda: [
        key.sign(digest) for _public, digest, _signature in items])

    # The clock: every call once per round, rounds interleaved, medians.
    # Each tier runs over its own cache with its threshold held, so a
    # timed call never crosses into the next tier.
    tiers = {"hot": (hot_cache, _NEVER),
             "wide": (wide_cache, ecdsa._WIDEN_AFTER)}

    def in_tier(tier, call):
        held, widen = tiers[tier]
        with monkeypatch.context() as patch:
            patch.setattr(ecdsa, "_key_cache", held)
            patch.setattr(ecdsa, "_WIDEN_AFTER", widen)
            return _clock(call)

    base = (public.x, public.y, 1)
    calls = {
        "first": lambda: _clock(verify_each_as_first_use),
        **{tier: lambda tier=tier: in_tier(tier, verify_each)
           for tier in tiers},
        **{f"{tier} batch": lambda tier=tier: in_tier(tier, verify_all)
           for tier in tiers},
        "sign": lambda: _clock(lambda: [
            key.sign(digest) for _public, digest, _signature in items]),
        "oracle": lambda: _clock(lambda: [
            verify_double_multiply(*item) for item in items]),
        "wide build": lambda: _clock(lambda: ecdsa._build_rows(
            base, ecdsa._WIDE_DIGIT_BITS, ecdsa._WIDE_ROWS)),
    }
    samples: dict[str, list[float]] = {name: [] for name in calls}
    for _round in range(ROUNDS):
        for name, call in calls.items():
            samples[name].append(call())
    us = {name: round(statistics.median(values) / SIGNATURES * 1e6, 1)
          for name, values in samples.items()}
    build_ms = round(statistics.median(samples["wide build"]) * 1e3, 2)

    print_header(f"ECDSA, {SIGNATURES} signatures under one key: "
                 "point operations per call, and the clock "
                 f"(median of {ROUNDS} interleaved rounds)")
    print_row("(columns)", "4-bit builds", "doublings", "additions",
              "inversions", "us/call")
    for label, spent, micros in (
            ("verify, first use (build included)",
             sum(first_each, Counter()), us["first"]),
            ("verify, hot", sum(hot_each, Counter()), us["hot"]),
            (f"verify_batch of {SIGNATURES} (hot)", batch, us["hot batch"]),
            ("verify, widened (wide)", sum(wide_each, Counter()),
             us["wide"]),
            (f"verify_batch of {SIGNATURES} (wide)", wide_batch,
             us["wide batch"]),
            ("sign", sign, us["sign"])):
        print_row(label, round(spent["4-bit builds"] / SIGNATURES, 2),
                  round(spent["doublings"] / SIGNATURES, 1),
                  round(spent["additions"] / SIGNATURES, 1),
                  round(spent["inversions"] / SIGNATURES, 2), micros)
    print_row("two-multiply oracle", "", "", "", "", us["oracle"])

    # Rent or buy: the 8-bit table repays its build once the uses it
    # serves have saved as much against the 4-bit one.
    print_header("rent or buy: the 8-bit build (ms), its saving per use "
                 "over a hot one (us), and the uses that repay it")
    print_row("(columns)", "build ms", "save alone", "save batch",
              "repaid alone", "repaid batch", "constant")
    savings = (us["hot"] - us["wide"], us["hot batch"] - us["wide batch"])
    print_row(f"wide: 8-bit, {ecdsa._WIDE_ROWS} rows", build_ms,
              *(round(saving, 1) for saving in savings),
              *(round(build_ms * 1e3 / saving, 1) if saving > 0
                else "-" for saving in savings),
              ecdsa._WIDEN_AFTER)

    # A first use: one 4-bit build, then the hot sum.  A hot verification:
    # all its additions affine, s**-1, then one inversion per level of
    # its ~92 points' pairwise sum (7 levels), and no z**-1.  A wide one
    # sums ~64 points in as many levels.
    for spent_each, builds, additions in ((first_each, 1, 105),
                                          (hot_each, 0, 105),
                                          (wide_each, 0, 70)):
        for spent in spent_each:
            assert (spent["4-bit builds"], spent["8-bit builds"]) == (
                builds, 0)
            assert spent["doublings"] == 0
            assert spent["additions"] == spent["affine additions"]
            assert spent["additions"] <= additions
            assert spent["inversions"] <= 8
    # A batch shares each of those inversions among all its items.
    for spent, additions in ((batch, 105), (wide_batch, 70)):
        assert spent["doublings"] == 0
        assert spent["additions"] == spent["affine additions"]
        assert spent["additions"] <= additions * SIGNATURES
        assert spent["inversions"] <= 10
    assert sign["doublings"] == 0
    assert sign["additions"] <= 34 * SIGNATURES
