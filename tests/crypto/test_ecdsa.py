"""secp256k1 ECDSA: curve arithmetic, RFC 6979, serialization."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ecdsa
from tests.oracles.ecdsa_reference import _jacobian_multiply


def _hash(message: bytes) -> bytes:
    return hashlib.sha256(message).digest()


@pytest.fixture(scope="module")
def key():
    return ecdsa.generate_private_key(random.Random(0xE0))


def test_generator_scalar_multiplication_known_vector():
    """2*G has a published coordinate pair."""
    two_g = ecdsa.PrivateKey(secret=2).public_key
    assert two_g.x == int(
        "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16
    )
    assert two_g.y == int(
        "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a", 16
    )


@pytest.mark.parametrize("scalar", [
    1, 2, ecdsa.CURVE_ORDER - 1, 1 << 128, ecdsa._LAMBDA,
    ecdsa.CURVE_ORDER // 2, ecdsa.CURVE_ORDER // 2 + 1,
])
def test_generator_table_matches_plain_ladder(scalar):
    """The signed-digit table walk against double-and-add, at the scalars
    where the recoding folds, carries or has a single digit."""
    generator = (ecdsa._GX, ecdsa._GY, 1)
    assert (ecdsa._to_affine(ecdsa._generator_multiply(scalar))
            == ecdsa._to_affine(_jacobian_multiply(generator, scalar)))


@pytest.mark.parametrize("message, r, s", [
    (b"Satoshi Nakamoto",
     "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8",
     "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"),
    (b"All those moments will be lost in time, like tears in rain. "
     b"Time to die...",
     "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
     "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"),
])
def test_sign_published_rfc6979_vectors(message, r, s):
    """The widely published secp256k1 / RFC 6979 vectors for key 1
    (SHA-256 of the ASCII message, low-S compact form)."""
    signature = ecdsa.PrivateKey(secret=1).sign(_hash(message))
    assert signature.to_bytes().hex() == r + s


def test_private_key_range_enforced():
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.PrivateKey(secret=0)
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.PrivateKey(secret=ecdsa.CURVE_ORDER)


def test_public_key_must_be_on_curve():
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.PublicKey(x=1, y=1)


@pytest.mark.parametrize("x, y", [
    (ecdsa._GX + ecdsa._P, ecdsa._GY),   # on the curve mod p, x unreduced
    (ecdsa._GX, ecdsa._GY + ecdsa._P),
    (ecdsa._GX, ecdsa._GY - ecdsa._P),   # negative: parity prefix is wrong
    (ecdsa._GX - ecdsa._P, ecdsa._GY),
])
def test_public_key_coordinates_must_be_reduced(x, y):
    """An unreduced twin compared unequal to the key it verified as, and
    ``to_bytes`` died with OverflowError instead of ECDSAError."""
    assert ecdsa._point_on_curve(x, y)
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.PublicKey(x=x, y=y)


def test_sign_verify(key):
    digest = _hash(b"transaction")
    signature = key.sign(digest)
    assert key.public_key.verify(digest, signature)


def test_sign_is_deterministic_rfc6979(key):
    digest = _hash(b"same message")
    assert key.sign(digest) == key.sign(digest)


def test_different_messages_different_signatures(key):
    assert key.sign(_hash(b"a")) != key.sign(_hash(b"b"))


def test_low_s_normalization(key):
    for i in range(20):
        signature = key.sign(_hash(bytes([i])))
        assert signature.s <= ecdsa.CURVE_ORDER // 2


def test_verify_rejects_tampered_digest(key):
    signature = key.sign(_hash(b"msg"))
    assert not key.public_key.verify(_hash(b"msg2"), signature)


def test_verify_rejects_wrong_key(key):
    other = ecdsa.generate_private_key(random.Random(0xE1))
    signature = key.sign(_hash(b"msg"))
    assert not other.public_key.verify(_hash(b"msg"), signature)


def test_verify_rejects_zero_scalars(key):
    digest = _hash(b"m")
    assert not key.public_key.verify(digest, ecdsa.Signature(r=1, s=1).__class__(
        r=1, s=1,
    )) or True  # r=1,s=1 is a valid encoding; just must not verify
    assert not key.public_key.verify(digest, ecdsa.Signature(r=1, s=1))


def test_signature_requires_32_byte_hash(key):
    with pytest.raises(ecdsa.ECDSAError):
        key.sign(b"short")
    with pytest.raises(ecdsa.ECDSAError):
        key.public_key.verify(b"short", key.sign(_hash(b"x")))


def test_compact_signature_roundtrip(key):
    signature = key.sign(_hash(b"serialize me"))
    data = signature.to_bytes()
    assert len(data) == 64
    assert ecdsa.Signature.from_bytes(data) == signature


def test_compact_signature_rejects_bad_length():
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.Signature.from_bytes(b"\x01" * 63)


def test_compact_signature_rejects_out_of_range():
    data = ecdsa.CURVE_ORDER.to_bytes(32, "big") + b"\x01" * 32
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.Signature.from_bytes(data)


def test_pubkey_compressed_roundtrip(key):
    data = key.public_key.to_bytes()
    assert len(data) == 33
    assert data[0] in (2, 3)
    assert ecdsa.PublicKey.from_bytes(data) == key.public_key


def test_pubkey_parity_prefix():
    for seed in range(6):
        public = ecdsa.generate_private_key(random.Random(seed)).public_key
        prefix = public.to_bytes()[0]
        assert prefix == (3 if public.y & 1 else 2)


def test_pubkey_rejects_bad_prefix(key):
    data = bytearray(key.public_key.to_bytes())
    data[0] = 0x04
    with pytest.raises(ecdsa.ECDSAError):
        ecdsa.PublicKey.from_bytes(bytes(data))


def test_pubkey_rejects_not_on_curve():
    # x = 5 has no curve point with the chosen parity encoding... find a
    # residue-free x deterministically instead of hardcoding.
    for x in range(1, 50):
        candidate = b"\x02" + x.to_bytes(32, "big")
        try:
            ecdsa.PublicKey.from_bytes(candidate)
        except ecdsa.ECDSAError:
            break
    else:
        pytest.fail("expected at least one non-residue x below 50")


def test_private_key_bytes_roundtrip(key):
    assert ecdsa.PrivateKey.from_bytes(key.to_bytes()) == key


def test_generate_deterministic():
    a = ecdsa.generate_private_key(random.Random(3))
    b = ecdsa.generate_private_key(random.Random(3))
    assert a == b


@given(st.integers(min_value=1, max_value=ecdsa.CURVE_ORDER - 1))
@settings(max_examples=15, deadline=None)
def test_roundtrip_any_scalar(secret):
    key = ecdsa.PrivateKey(secret=secret)
    digest = _hash(secret.to_bytes(32, "big"))
    assert key.public_key.verify(digest, key.sign(digest))
