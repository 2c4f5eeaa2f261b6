"""The one ECDSA verification core: its arithmetic, its tier boundaries
and its bounds.

``repro.crypto.ecdsa`` computes ``u1*G + u2*Q`` in one place, for
:meth:`PublicKey.verify` and ``verify_batch`` alike: GLV halves of ``u2``
as signed digits, one point of a full 4-bit table per digit from the
key's first verification, and once its cumulative verifications reach
``_WIDEN_AFTER``, one point of an 8-bit table per digit, summed with
``u1*G``'s points in affine coordinates by ``_affine_sums`` (checked here
against one-at-a-time Jacobian sums).  What is cached must never change a
verdict, so every differential here runs at a first use, hot, wide and
after an eviction, against the two-multiply oracle.  Bounds are asserted
on counts (``ecdsa.cache_stats()``), never on clocks.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    CURVE_ORDER,
    ECDSAError,
    PrivateKey,
    PublicKey,
    Signature,
    generate_private_key,
    verify_batch,
)
from tests.oracles.ecdsa_reference import (
    _jacobian_multiply,
    verify_double_multiply,
)

_G = (ecdsa._GX, ecdsa._GY, 1)

_TABLE_BYTES = ecdsa._KEY_ROWS * 8 * ecdsa._POINT_BYTES  # 264 points
_WIDE_BYTES = ecdsa._WIDE_ROWS * 128 * ecdsa._POINT_BYTES  # 2176 points


@pytest.fixture
def cache(monkeypatch):
    """A private, empty key cache, so counts start from zero whatever the
    rest of the suite has verified."""
    monkeypatch.setattr(ecdsa, "_key_cache", ecdsa._KeyCache())
    return ecdsa.cache_stats


_NEVER = 1 << 62


@pytest.fixture(params=["hot", "wide"])
def stage(request, monkeypatch, cache):
    """Pin every key of the test to one tier from its first use."""
    monkeypatch.setattr(ecdsa, "_WIDEN_AFTER",
                        {"hot": _NEVER, "wide": 1}[request.param])
    return request.param


def _tier(public_key: PublicKey) -> str:
    """Which rows the cache holds for ``public_key`` now."""
    record = ecdsa._key_cache.records.get((public_key.x, public_key.y))
    if record is None:
        return "absent"
    rows = record[1]
    return {ecdsa._KEY_ROWS: "hot", ecdsa._WIDE_ROWS: "wide"}[len(rows)]


def _agree(public_key: PublicKey, digest: bytes, signature: Signature) -> bool:
    """One verdict from the oracle, ``verify`` and ``verify_batch``."""
    expected = verify_double_multiply(public_key, digest, signature)
    assert public_key.verify(digest, signature) is expected
    assert verify_batch([(public_key, digest, signature)]) == [expected]
    return expected


def _crafted(u1: int, u2: int, r: Optional[int] = None
             ) -> tuple[bytes, Signature]:
    """A (digest, signature) pair whose verification scalars are exactly
    ``u1`` and ``u2``, claiming ``r``: ``s == r/u2`` and ``z == u1*s``, so
    with the default ``r == u2``, ``s == 1`` and ``z == u1``."""
    r = u2 if r is None else r
    s = (r * pow(u2, -1, CURVE_ORDER)) % CURVE_ORDER
    return ((u1 * s) % CURVE_ORDER).to_bytes(32, "big"), Signature(r=r, s=s)


# -- (a) the arithmetic ------------------------------------------------------

def test_endomorphism_constants():
    assert pow(ecdsa._LAMBDA, 3, CURVE_ORDER) == 1 != ecdsa._LAMBDA
    assert pow(ecdsa._BETA, 3, ecdsa._P) == 1 != ecdsa._BETA
    for a, b in ((ecdsa._A1, ecdsa._B1), (ecdsa._A2, ecdsa._B2)):
        assert (a + b * ecdsa._LAMBDA) % CURVE_ORDER == 0
    # The halves' bound that _KEY_ROWS is sized for.
    assert (ecdsa._A1 + ecdsa._A2) // 2 < 1 << 128
    assert (-ecdsa._B1 + ecdsa._B2) // 2 < 1 << 128


@pytest.mark.parametrize("seed", range(4))
def test_lambda_times_point_is_beta_times_x(seed):
    public = generate_private_key(random.Random(seed)).public_key
    scaled = _jacobian_multiply((public.x, public.y, 1), ecdsa._LAMBDA)
    assert ecdsa._to_affine(scaled) == (
        (ecdsa._BETA * public.x) % ecdsa._P, public.y)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=CURVE_ORDER - 1))
def test_split_and_digits_reconstruct_the_scalar(scalar):
    k1, k2 = ecdsa._glv_split(scalar)
    assert (k1 + k2 * ecdsa._LAMBDA) % CURVE_ORDER == scalar
    for half in (k1, k2):
        assert abs(half) < 1 << 128
        digits = ecdsa._signed_digits(half, ecdsa._KEY_DIGIT_BITS)
        assert len(digits) <= ecdsa._KEY_ROWS
        assert all(-8 <= digit <= 8 for digit in digits)
        assert sum(digit << (4 * i) for i, digit in enumerate(digits)) == half
        digits = ecdsa._signed_digits(half, ecdsa._WIDE_DIGIT_BITS)
        assert len(digits) <= ecdsa._WIDE_ROWS
        assert all(-128 <= digit <= 128 for digit in digits)
        assert sum(digit << (8 * i) for i, digit in enumerate(digits)) == half
    folded = scalar - CURVE_ORDER if scalar > CURVE_ORDER // 2 else scalar
    digits = ecdsa._signed_digits(folded, ecdsa._G_DIGIT_BITS)
    assert len(digits) <= len(ecdsa._G_ROWS)
    assert all(abs(digit) <= len(ecdsa._G_ROWS[0]) for digit in digits)
    assert sum(digit << (8 * i) for i, digit in enumerate(digits)) == folded


@pytest.mark.parametrize("bits, count", [(4, 1), (4, 3), (8, 2)])
def test_rows_hold_the_multiples_they_claim(bits, count):
    public = generate_private_key(random.Random(0xA0)).public_key
    base = (public.x, public.y, 1)
    rows = ecdsa._build_rows(base, bits, count)
    assert [len(row) for row in rows] == [1 << (bits - 1)] * count
    for index, row in enumerate(rows):
        for multiple in (1, 2, 3, len(row) - 1, len(row)):
            expected = _jacobian_multiply(base, multiple << (bits * index))
            assert row[multiple - 1] == ecdsa._to_affine(expected)


# The affine sums a hot verification adds its table points with, against
# the oracle's Jacobian arithmetic: one point at a time, no shared slope.

_LARGE = tuple(random.Random(0xAFF1).randrange(1, CURVE_ORDER)
               for _ in range(6))
_MULTIPLES: dict[int, tuple[int, int]] = {}


def _multiple(k: int) -> tuple[int, int]:
    """``k*G`` for ``k != 0 (mod n)``, affine, by the oracle's ladder."""
    k %= CURVE_ORDER
    if k not in _MULTIPLES:
        _MULTIPLES[k] = ecdsa._to_affine(_jacobian_multiply(_G, k))
    return _MULTIPLES[k]


def _jacobian_sum(points: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    total = ecdsa._INFINITY
    for x, y in points:
        total = ecdsa._jacobian_add(total, (x, y, 1))
    return ecdsa._to_affine(total)


# Small multiples and their negations recur, so groups hold duplicates,
# opposite pairs and whole runs that cancel.
_SCALARS = st.one_of(st.integers(1, 12), st.integers(-12, -1),
                     st.sampled_from(_LARGE))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_SCALARS, max_size=100), max_size=5))
def test_affine_sums_match_one_point_at_a_time(scalars):
    groups = [[_multiple(k) for k in group] for group in scalars]
    assert ecdsa._affine_sums(groups) == [_jacobian_sum(group)
                                          for group in groups]


def test_affine_sums_exceptional_pairs_share_one_level():
    """One call whose first level holds a doubling, two cancellations and
    ordinary additions, beside a group that cancels one level up."""
    p, q = _multiple(5), _multiple(11)
    minus_p = (p[0], ecdsa._P - p[1])
    groups = [
        [p, p],                       # doubles
        [p, minus_p],                 # cancels: infinity
        [p, minus_p, q],              # cancels, q is carried
        [p, q, _multiple(-16)],       # p + q, then cancels
        [_multiple(k) for k in (3, 8, 200, -7, *_LARGE)],
        [q],
        [],
    ]
    sums = ecdsa._affine_sums(groups)
    assert sums == [_jacobian_sum(group) for group in groups]
    assert sums[:4] == [_multiple(10), None, q, None]
    assert sums[5:] == [q, None]


# -- (b) verdicts never depend on what is cached -----------------------------

def _cases(key: PrivateKey, tag: bytes):
    digest = hashlib.sha256(tag).digest()
    good = key.sign(digest)
    yield "valid", digest, good, True
    yield "high-s", digest, Signature(good.r, CURVE_ORDER - good.s), True
    yield "tampered-r", digest, Signature(good.r ^ 1 or 2, good.s), False
    yield "tampered-s", digest, Signature(
        good.r, (good.s + 1) % CURVE_ORDER or 1), False
    yield "wrong-message", hashlib.sha256(tag + b"!").digest(), good, False
    yield "r-out-of-range", digest, Signature(CURVE_ORDER, good.s), False
    yield "s-out-of-range", digest, Signature(good.r, 0), False


def _pad(key: PrivateKey, uses: int) -> None:
    """``uses`` more verifications by ``key``'s public key."""
    digest = hashlib.sha256(b"pad").digest()
    signature = key.sign(digest)
    for _ in range(uses):
        assert key.public_key.verify(digest, signature)


def test_one_key_from_first_use_through_promotion_and_eviction(
        monkeypatch, cache):
    """First use, hot, wide, then evicted: the first verification builds
    the 4-bit table, and an evicted wide key comes back with a new one."""
    rng = random.Random(0xC01D)
    key, other = generate_private_key(rng), generate_private_key(rng)
    public = key.public_key

    seen = []
    for stage in ("first-use", "hot", "hot-to-wide", "wide", "evicted"):
        if stage == "hot-to-wide":  # the stage's third use widens
            uses, _rows = ecdsa._key_cache.records[(public.x, public.y)]
            _pad(key, ecdsa._WIDEN_AFTER - 3 - uses)
        if stage == "evicted":
            # A budget of one 4-bit table: verifying another key drops
            # the wide one.
            with monkeypatch.context() as patch:
                patch.setattr(ecdsa, "_KEY_CACHE_BYTES", _TABLE_BYTES)
                _agree(other.public_key, *_crafted(5, 7))
            assert (cache()["keys"], _tier(public)) == (1, "absent")
        for name, case_digest, signature, expected in _cases(key, b"msg"):
            built = cache()["tables_built"]
            assert public.verify(case_digest, signature,
                                 require_low_s=True) is (
                expected and signature.is_low_s), (stage, name)
            if stage in ("first-use", "evicted") and name == "valid":
                # The key's first verification builds one 4-bit table,
                # and its count toward the widening starts there.
                assert cache()["tables_built"] == built + 1
                assert ecdsa._key_cache.records[(public.x, public.y)][0] == 1
                assert _tier(public) == "hot"
            assert _agree(public, case_digest, signature) is expected, (
                stage, name)
        seen.append((_tier(public), cache()["tables_built"],
                     cache()["wide_tables"]))
    # Built at the first use, widened once, built again after the
    # eviction (the other key's table is the third build).
    assert seen == [("hot", 1, 0), ("hot", 1, 0), ("wide", 2, 1),
                    ("wide", 2, 1), ("hot", 4, 0)]


def test_one_batch_mixes_every_tier_and_every_refusal(cache):
    """A key's first use, hot and wide items of one call share each
    inversion; the verdicts must still be the oracle's, item by item."""
    rng = random.Random(0x3715)
    keys = [generate_private_key(rng) for _ in range(3)]
    _fresh, hot, wide = keys
    _pad(hot, 1)
    _pad(wide, ecdsa._WIDEN_AFTER)
    items = []
    for key in keys:
        secret = key.secret.to_bytes(32, "big")
        digest = hashlib.sha256(b"mixed" + secret).digest()
        good = key.sign(digest)
        for signature in (good,
                          Signature(good.r, CURVE_ORDER - good.s),  # high-S
                          Signature(0, good.s), Signature(CURVE_ORDER, good.s),
                          Signature(good.r, 0), Signature(good.r, CURVE_ORDER)):
            items.append((key.public_key, digest, signature))
        items.append((key.public_key, hashlib.sha256(b"other").digest(),
                      good))
    rng.shuffle(items)
    expected = [verify_double_multiply(*item) for item in items]
    built = cache()["tables_built"]
    assert verify_batch(items) == expected
    assert sum(expected) == 6  # each key's valid and high-S twin
    # Three in-range items each: only the fresh key built a table.
    assert cache()["tables_built"] == built + 1
    assert [_tier(key.public_key) for key in keys] == ["hot", "hot", "wide"]
    for public, digest, signature in items:
        assert public.verify(digest, signature, require_low_s=True) is (
            verify_double_multiply(public, digest, signature)
            and signature.is_low_s)


def test_batch_and_single_share_the_cumulative_count(cache):
    """Uses add up across both public verifiers: neither has a threshold
    of its own, and a batch does not need the uses to arrive together.
    Each table is built exactly once, the 4-bit one at the first use and
    the 8-bit one at ``_WIDEN_AFTER``, and the bytes held are counted by
    point whatever the width."""
    key = generate_private_key(random.Random(0x5A4E))
    for use in range(1, ecdsa._WIDEN_AFTER + 4):
        digest = hashlib.sha256(b"use-%d" % use).digest()
        signature = key.sign(digest)
        if use % 2:
            assert verify_batch(
                [(key.public_key, digest, signature)]) == [True]
        else:
            assert key.public_key.verify(digest, signature) is True
        stats = cache()
        assert stats["tables_built"] == 1 + (use >= ecdsa._WIDEN_AFTER)
        assert stats["wide_tables"] == (use >= ecdsa._WIDEN_AFTER)
        assert stats["table_bytes"] == (
            _WIDE_BYTES if use >= ecdsa._WIDEN_AFTER else _TABLE_BYTES)


def test_out_of_range_scalars_touch_no_table(cache):
    key = generate_private_key(random.Random(0x0075))
    digest = hashlib.sha256(b"range").digest()
    for r, s in ((0, 1), (1, 0), (CURVE_ORDER, 1), (1, CURVE_ORDER)):
        bad = Signature(r=r, s=s)
        assert key.public_key.verify(digest, bad) is False
        assert verify_batch([(key.public_key, digest, bad)]) == [False]
    assert cache()["keys"] == 0


def test_bad_hash_raises_before_any_verdict_of_the_batch(cache):
    key = generate_private_key(random.Random(0xBAD))
    digest = hashlib.sha256(b"ok").digest()
    signature = key.sign(digest)
    with pytest.raises(ECDSAError, match="32 bytes"):
        verify_batch([(key.public_key, digest, signature),
                      (key.public_key, digest[:31], signature)])
    assert cache()["keys"] == 0  # the good item was not verified either


# -- (c) the exceptional additions a walk can hit ----------------------------

_SMALL = (1, 2, 3, 8, 9, 128, 129)
_EDGE_SCALARS = _SMALL + tuple(CURVE_ORDER - k for k in _SMALL)


@pytest.mark.parametrize("secret", [1, CURVE_ORDER - 1], ids=["Q=G", "Q=-G"])
def test_accumulator_meets_its_own_table_entry(secret, stage):
    """With ``Q = +-G`` and small scalars, a hot sum meets a point and
    itself or its negation -- the doubling and the infinity branch of the
    affine sums.  Each case is verified
    claiming ``r == u2`` and, when the sum is finite, claiming its own
    ``x``: only an exact sum accepts that one."""
    public = PrivateKey(secret=secret).public_key
    cancelled = accepted = 0
    for u1 in (0,) + _EDGE_SCALARS:
        for u2 in _EDGE_SCALARS:
            total = ecdsa._to_affine(_jacobian_multiply(
                _G, u1 + u2 * secret))
            claims = {u2} if total is None else {u2, total[0] % CURVE_ORDER}
            for r in claims:
                verdict = _agree(public, *_crafted(u1, u2, r))
                assert verdict is (total is not None
                                   and total[0] % CURVE_ORDER == r)
                accepted += verdict
            if total is None:
                cancelled += 1
    assert cancelled == len(_EDGE_SCALARS)
    # Every finite sum was accepted under its own x.
    cases = (1 + len(_EDGE_SCALARS)) * len(_EDGE_SCALARS)
    assert accepted + cancelled == cases


def test_zero_u1_and_infinity_on_an_ordinary_key(stage):
    key = generate_private_key(random.Random(0x1F))
    public = key.public_key
    for u2 in (1, 5, ecdsa._LAMBDA, CURVE_ORDER - 1, 1 << 200):
        # z == 0 (mod n): u1 == 0, the G walk adds nothing.
        _agree(public, (0).to_bytes(32, "big"), Signature(r=u2, s=1))
        _agree(public, CURVE_ORDER.to_bytes(32, "big"), Signature(r=u2, s=1))
        # u1 == -u2 * d: the sum is the point at infinity.
        assert _agree(public, *_crafted(-u2 * key.secret, u2)) is False


def test_odd_y_key_and_its_even_twin(stage):
    key = generate_private_key(random.Random(0x0DD))
    twin = PrivateKey(secret=CURVE_ORDER - key.secret)
    assert twin.public_key.x == key.public_key.x
    assert twin.public_key.y == ecdsa._P - key.public_key.y
    assert {key.public_key.to_bytes()[0],
            twin.public_key.to_bytes()[0]} == {2, 3}
    digest = hashlib.sha256(b"twin").digest()
    for signer, stranger in ((key, twin), (twin, key)):
        signature = signer.sign(digest)
        assert _agree(signer.public_key, digest, signature) is True
        assert _agree(stranger.public_key, digest, signature) is False


# -- (d) the bounds ----------------------------------------------------------

def test_row_cache_stays_under_budget_over_three_budgets_of_keys(
        monkeypatch, cache):
    budget = 3 * _TABLE_BYTES  # three 4-bit tables
    monkeypatch.setattr(ecdsa, "_KEY_CACHE_BYTES", budget)
    rng = random.Random(0xB0D6)
    digest = hashlib.sha256(b"bound").digest()
    # Recurring keys: three times the tables the budget holds.
    recurring = []
    for _ in range(9):
        key = generate_private_key(rng)
        recurring.append(key.public_key)
        signature = key.sign(digest)
        for _use in range(3):
            assert key.public_key.verify(digest, signature)
            assert cache()["table_bytes"] <= budget
    assert cache()["keys"] == 3
    assert cache()["tables_built"] == 9
    # One-off keys: three budgets more, a table each.
    for _ in range(9):
        generate_private_key(rng).public_key.verify(*_crafted(3, 5))
        stats = cache()
        assert stats["table_bytes"] <= budget
        assert stats["keys"] <= 3
    # Least recently verified went first.
    assert {_tier(public) for public in recurring} == {"absent"}
    assert stats["tables_built"] == 18


def test_default_budget_holds_the_largest_bench_deployment(cache):
    """The fleet suite's 101 signers (``benchmarks/test_scaling_fleet.py``
    at 100 gateways, the largest signer set in the repo) hold 4-bit
    tables, and two keys as busy as the ledger workloads' hold 8-bit
    ones, all at once: nothing is evicted, and the bytes are counted by
    point whatever the width."""
    rng = random.Random(0x25)
    for index in range(103):
        key = generate_private_key(rng)
        _pad(key, 1 if index < 101 else ecdsa._WIDEN_AFTER)
    stats = cache()
    assert (stats["keys"], stats["wide_tables"]) == (103, 2)
    assert stats["tables_built"] == 105
    assert stats["table_bytes"] == 101 * _TABLE_BYTES + 2 * _WIDE_BYTES
    assert stats["table_bytes"] <= ecdsa._KEY_CACHE_BYTES


def test_parse_memo_returns_the_validated_key(cache):
    public = generate_private_key(random.Random(0x9A45E)).public_key
    data = public.to_bytes()
    first = PublicKey.from_bytes(data)
    assert first == public
    assert PublicKey.from_bytes(data) is first
    assert PublicKey.from_bytes(bytearray(data)) is first
    assert (cache()["parse_misses"], cache()["parse_hits"]) == (1, 2)


@pytest.mark.parametrize("data", [
    b"\x02" + (5).to_bytes(32, "big"),         # x**3 + 7 is not a square
    b"\x03" + ecdsa._P.to_bytes(32, "big"),    # x out of field range
    b"\x04" + (1).to_bytes(32, "big"),         # not a compressed prefix
    b"\x02" + (1).to_bytes(31, "big"),         # short
])
def test_unparseable_bytes_are_never_memoised(data, cache):
    for _ in range(3):
        with pytest.raises(ECDSAError):
            PublicKey.from_bytes(data)
    assert cache()["parse_hits"] == 0


@pytest.mark.parametrize("data", [
    None, 33, "\x02" + "a" * 32, [2] + [0] * 31 + [1], (2,) * 33,
])
def test_parse_checks_type_and_length_before_the_lookup(data, cache):
    """A list is unhashable and a 33-character str is not a key: neither
    may reach the memo."""
    with pytest.raises(ECDSAError):
        PublicKey.from_bytes(data)
    assert (cache()["parse_misses"], cache()["parse_hits"]) == (0, 0)


def test_parse_memo_is_bounded(monkeypatch, cache):
    monkeypatch.setattr(ecdsa, "_PARSED_KEY_LIMIT", 4)
    rng = random.Random(0x11417)
    encodings = [generate_private_key(rng).public_key.to_bytes()
                 for _ in range(6)]
    for data in encodings:
        PublicKey.from_bytes(data)
    assert (cache()["parse_misses"], cache()["parse_hits"]) == (6, 0)
    PublicKey.from_bytes(encodings[-1])   # still held
    PublicKey.from_bytes(encodings[0])    # pushed out by the fifth
    assert (cache()["parse_misses"], cache()["parse_hits"]) == (7, 1)


def test_cache_stats_is_a_snapshot_of_plain_ints():
    stats = ecdsa.cache_stats()
    assert set(stats) == {"keys", "wide_tables", "table_bytes",
                          "tables_built", "parse_hits", "parse_misses"}
    assert all(type(value) is int for value in stats.values())
    stats["keys"] = -1
    assert ecdsa.cache_stats()["keys"] >= 0
