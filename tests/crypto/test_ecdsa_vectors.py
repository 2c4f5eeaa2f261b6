"""Wycheproof-style edge vectors for ECDSA verification.

Every vector is run through **both** verification structures — the
signed-digit GLV core behind :meth:`PublicKey.verify` and the two-multiply
reference ``tests/oracles/ecdsa_reference.py`` — and the suite demands
identical verdicts.  The corpus covers the classic boundary cases:
scalars at 0/1/n-1/n, digest wraparound at the group order, the
point-at-infinity degenerate result, malformed encodings, and the
high-S malleability twin under both the consensus and standardness
knobs.
"""

from __future__ import annotations

import random

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
)
from tests.oracles.ecdsa_reference import verify_double_multiply

_RNG = random.Random(0xEC_D5A)
_KEY = ecdsa.generate_private_key(_RNG)
_PUB = _KEY.public_key
_MSG = bytes(range(32))
_SIG = _KEY.sign(_MSG)


def _both(pub: PublicKey, msg: bytes, sig: Signature) -> bool:
    """Verdict from both paths, asserting they agree."""
    core = pub.verify(msg, sig)
    naive = verify_double_multiply(pub, msg, sig)
    assert core == naive, (
        f"path divergence: core={core} naive={naive} "
        f"r={sig.r:#x} s={sig.s:#x}"
    )
    return core


def test_valid_signature_accepted_by_both():
    assert _both(_PUB, _MSG, _SIG) is True


@pytest.mark.parametrize("r", [0, 1, CURVE_ORDER - 1, CURVE_ORDER])
@pytest.mark.parametrize("s", [0, 1, CURVE_ORDER - 1, CURVE_ORDER])
def test_boundary_scalars_never_crash(r, s):
    """r/s at 0, 1, n-1, n: out-of-range pairs are False, never raised."""
    verdict = _both(_PUB, _MSG, Signature(r=r, s=s))
    if r in (0, CURVE_ORDER) or s in (0, CURVE_ORDER):
        assert verdict is False


def test_tampered_r_and_s_rejected():
    assert _both(_PUB, _MSG, Signature(r=_SIG.r + 1, s=_SIG.s)) is False
    assert _both(_PUB, _MSG, Signature(r=_SIG.r, s=_SIG.s + 1)) is False


def test_wrong_message_rejected():
    other = bytes(31) + b"\x01"
    assert _both(_PUB, other, _SIG) is False


def test_digest_wraparound_at_group_order():
    """z is reduced mod n: digests of k and n+k verify identically."""
    for k in (1, 7, 0xDEAD):
        sig = _KEY.sign(k.to_bytes(32, "big"))
        wrapped = (CURVE_ORDER + k).to_bytes(32, "big")
        assert _both(_PUB, k.to_bytes(32, "big"), sig) is True
        assert _both(_PUB, wrapped, sig) is True
    # A digest of exactly n reduces to z == 0 (still a valid scalar).
    sig_zero = _KEY.sign(CURVE_ORDER.to_bytes(32, "big"))
    assert _both(_PUB, CURVE_ORDER.to_bytes(32, "big"), sig_zero) is True
    assert _both(_PUB, (0).to_bytes(32, "big"), sig_zero) is True


def test_point_at_infinity_result_rejected():
    """Craft u1*G + u2*Q = infinity: verification must return False.

    With Q = 1*G, choosing r = -z mod n and s = 1 makes the recovered
    point the identity; a naive implementation crashes or accepts here.
    """
    pub = PrivateKey(1).public_key
    z = 1
    sig = Signature(r=(-z) % CURVE_ORDER, s=1)
    assert _both(pub, z.to_bytes(32, "big"), sig) is False


def test_malformed_signature_encodings():
    for data in (b"", b"\x00" * 63, b"\x00" * 65, b"\xff" * 64,
                 bytes(64),  # r = s = 0
                 CURVE_ORDER.to_bytes(32, "big") + (1).to_bytes(32, "big")):
        with pytest.raises(ECDSAError):
            Signature.from_bytes(data)


def test_malformed_pubkey_encodings():
    good = _PUB.to_bytes()
    field_p = (1 << 256) - (1 << 32) - 977
    for data in (b"", good[:-1], good + b"\x00",
                 b"\x05" + good[1:],  # bad prefix
                 b"\x02" + field_p.to_bytes(32, "big"),  # x >= p
                 b"\x02" + (5).to_bytes(32, "big")):  # no square root
        with pytest.raises(ECDSAError):
            PublicKey.from_bytes(data)


def test_short_message_hash_rejected_by_both():
    with pytest.raises(ECDSAError):
        _PUB.verify(b"\x00" * 31, _SIG)
    with pytest.raises(ECDSAError):
        verify_double_multiply(_PUB, b"\x00" * 31, _SIG)


def test_high_s_twin_consensus_vs_standardness():
    """(r, n-s) verifies under consensus; require_low_s rejects it."""
    twin = Signature(r=_SIG.r, s=CURVE_ORDER - _SIG.s)
    assert _SIG.is_low_s
    assert not twin.is_low_s
    assert _both(_PUB, _MSG, twin) is True
    assert _PUB.verify(_MSG, twin, require_low_s=True) is False
    assert _PUB.verify(_MSG, _SIG, require_low_s=True) is True


@settings(max_examples=80, deadline=None)
@given(z=st.integers(min_value=0, max_value=(1 << 256) - 1),
       r=st.integers(min_value=0, max_value=CURVE_ORDER),
       s=st.integers(min_value=0, max_value=CURVE_ORDER))
def test_paths_agree_on_arbitrary_inputs(z, r, s):
    """The core and double-multiply agree on *any* (digest, r, s)."""
    _both(_PUB, z.to_bytes(32, "big"), Signature(r=r, s=s))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_paths_agree_on_fresh_keys_and_messages(seed):
    rng = random.Random(seed)
    key = ecdsa.generate_private_key(rng)
    msg = rng.getrandbits(256).to_bytes(32, "big")
    sig = key.sign(msg)
    assert _both(key.public_key, msg, sig) is True
    flipped = Signature(r=sig.r, s=(sig.s + 1) % CURVE_ORDER or 1)
    _both(key.public_key, msg, flipped)


def test_pubkey_table_cache_stays_bounded(monkeypatch):
    """The per-key table cache evicts once it exceeds its byte budget."""
    budget = 4 * ecdsa._KEY_ROWS * 8 * ecdsa._POINT_BYTES  # four tables
    monkeypatch.setattr(ecdsa, "_KEY_CACHE_BYTES", budget)
    rng = random.Random(0xB0)
    for _ in range(12):
        key = ecdsa.generate_private_key(rng)
        msg = rng.getrandbits(256).to_bytes(32, "big")
        assert key.public_key.verify(msg, key.sign(msg))
        assert ecdsa.cache_stats()["table_bytes"] <= budget
    assert ecdsa.cache_stats()["keys"] <= 4
