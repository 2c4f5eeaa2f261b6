"""Differential coverage for the cross-input batch ECDSA verifier.

``verify_batch`` must be verdict-identical to per-item
``PublicKey.verify`` on every input class — valid, tampered, wrong-key,
high-S, out-of-range — whether the item is its key's first use, which
builds the key's table, or a later one, in any call.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    CURVE_ORDER,
    ECDSAError,
    Signature,
    _batch_inverse,
    generate_private_key,
    verify_batch,
)

_RNG = random.Random(0xBA7C)
_KEYS = [generate_private_key(_RNG) for _ in range(3)]


def _sign(key, message: bytes):
    digest = hashlib.sha256(message).digest()
    return digest, key.sign(digest)


def test_empty_batch():
    assert verify_batch([]) == []


def test_mixed_batch_matches_serial():
    items = []
    for tag in range(8):
        key = _KEYS[tag % len(_KEYS)]
        digest, signature = _sign(key, b"msg-%d" % tag)
        if tag == 2:  # tampered message
            digest = hashlib.sha256(b"other").digest()
        if tag == 5:  # wrong key
            key = _KEYS[(tag + 1) % len(_KEYS)]
        items.append((key.public_key, digest, signature))
    serial = [pk.verify(digest, sig) for pk, digest, sig in items]
    assert verify_batch(items) == serial
    assert serial.count(False) == 2


def test_high_s_twin_verdict_matches_serial():
    key = _KEYS[0]
    digest, signature = _sign(key, b"malleable")
    twin = Signature(r=signature.r, s=CURVE_ORDER - signature.s)
    items = [(key.public_key, digest, signature),
             (key.public_key, digest, twin)]
    serial = [pk.verify(d, s) for pk, d, s in items]
    assert verify_batch(items) == serial
    assert serial == [True, True]  # low-S is policy, not verification


@pytest.mark.parametrize("r,s", [
    (0, 1), (CURVE_ORDER, 1), (1, 0), (1, CURVE_ORDER),
])
def test_out_of_range_scalars_are_false_not_errors(r, s):
    key = _KEYS[0]
    digest, good = _sign(key, b"range")
    bad = Signature(r=r, s=s)
    verdicts = verify_batch([(key.public_key, digest, bad),
                             (key.public_key, digest, good)])
    assert verdicts == [False, True]
    assert key.public_key.verify(digest, bad) is False


def test_bad_hash_length_raises():
    key = _KEYS[0]
    _, signature = _sign(key, b"x")
    with pytest.raises(ECDSAError, match="32 bytes"):
        verify_batch([(key.public_key, b"\x00" * 31, signature)])


def test_fixed_table_threshold_path_matches_serial():
    """A batch whose first item is a fresh key's first use: the table is
    built once, at that item, and the batch and the serial verifier agree
    item by item."""
    key = generate_private_key(random.Random(0xF17ED))
    items = []
    for tag in range(7):
        digest, signature = _sign(key, b"bulk-%d" % tag)
        if tag == 3:
            signature = Signature(r=signature.r,
                                  s=(signature.s * 2) % CURVE_ORDER or 1)
        items.append((key.public_key, digest, signature))
    built = ecdsa.cache_stats()["tables_built"]
    batch = verify_batch(items)  # the first item builds the table
    assert ecdsa.cache_stats()["tables_built"] == built + 1
    serial = [pk.verify(d, s) for pk, d, s in items]  # hot throughout
    assert batch == serial
    assert ecdsa.cache_stats()["tables_built"] == built + 1


def test_batch_inverse_matches_pow():
    values = [3, 7, 11, CURVE_ORDER - 1, 123456789]
    inverses = _batch_inverse(values, CURVE_ORDER)
    for value, inverse in zip(values, inverses):
        assert (value * inverse) % CURVE_ORDER == 1
    assert _batch_inverse([], CURVE_ORDER) == []


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans()),
    max_size=10,
))
def test_verify_batch_differential(spec):
    """Random batches: keys x messages x optional corruption."""
    items = []
    for key_index, msg_tag, corrupt in spec:
        key = _KEYS[key_index]
        digest, signature = _sign(key, b"h-%d" % msg_tag)
        if corrupt:
            signature = Signature(r=signature.r,
                                  s=(signature.s + 1) % CURVE_ORDER or 1)
        items.append((key.public_key, digest, signature))
    serial = [pk.verify(d, s) for pk, d, s in items]
    assert verify_batch(items) == serial
