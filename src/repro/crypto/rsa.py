"""RSA implemented from scratch, sized for BcWAN's RSA-512 usage.

BcWAN uses RSA-512 in two places (paper section 5.1):

* the **gateway** generates an *ephemeral* RSA-512 key pair per message; the
  node wraps its AES ciphertext with the ephemeral public key, and the
  blockchain script ``OP_CHECKRSA512PAIR`` later forces the gateway to reveal
  the matching private key to collect payment;
* the **node** signs the encrypted message and the ephemeral public key with
  its provisioned RSA-512 secret key so the recipient can authenticate it.

The paper explicitly accepts RSA-512's weakness because LoRa payloads are
tiny and the protected value is a micro-payment (section 6); larger moduli
are supported here for the key-size ablation benchmark.

Encryption/signature padding is PKCS#1 v1.5 (what OpenSSL's legacy RSA API,
used by the paper's PoC, applies by default).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.crypto import primes
from repro.crypto.hashing import sha256

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "RSAError",
    "generate_keypair",
]

_PUBLIC_EXPONENT = 65537

# DER prefix of the DigestInfo structure for SHA-256 (RFC 8017 section 9.2).
_SHA256_DIGEST_INFO = bytes.fromhex(
    "3031300d060960864801650304020105000420"
)


class RSAError(Exception):
    """Raised on malformed ciphertexts, bad padding, or oversized inputs."""


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int = _PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def encrypt(self, plaintext: bytes, rng: Optional[random.Random] = None) -> bytes:
        """PKCS#1 v1.5 encrypt; plaintext must be at most ``k - 11`` bytes."""
        k = self.byte_length
        if len(plaintext) > k - 11:
            raise RSAError(
                f"plaintext too long for RSA-{self.bits}: "
                f"{len(plaintext)} > {k - 11} bytes"
            )
        rng = rng or random.SystemRandom()
        pad_len = k - 3 - len(plaintext)
        padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
        block = b"\x00\x02" + padding + b"\x00" + plaintext
        return pow(int.from_bytes(block, "big"), self.e, self.n).to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5 SHA-256 signature over ``message``."""
        k = self.byte_length
        if len(signature) != k:
            return False
        value = int.from_bytes(signature, "big")
        if value >= self.n:
            return False
        block = pow(value, self.e, self.n).to_bytes(k, "big")
        expected = _signature_block(message, k)
        return block == expected

    def to_bytes(self) -> bytes:
        """Compact serialization: 2-byte modulus length, modulus, 4-byte e."""
        k = self.byte_length
        return (
            k.to_bytes(2, "big")
            + self.n.to_bytes(k, "big")
            + self.e.to_bytes(4, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPublicKey":
        if len(data) < 6:
            raise RSAError("truncated RSA public key")
        k = int.from_bytes(data[:2], "big")
        if len(data) != 2 + k + 4:
            raise RSAError(
                f"RSA public key length mismatch: expected {2 + k + 4}, got {len(data)}"
            )
        n = int.from_bytes(data[2:2 + k], "big")
        e = int.from_bytes(data[2 + k:], "big")
        return cls(n=n, e=e)

    def fingerprint(self) -> bytes:
        """SHA-256 fingerprint of the serialized key."""
        return sha256(self.to_bytes())


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with CRT parameters for fast decryption."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    @property
    def public_key(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> tuple[int, int, int]:
        """``(dp, dq, q_inv)``, derived once per key.  Not a field, so
        equality, hashing and serialization see ``(n, e, d, p, q)`` only."""
        return (self.d % (self.p - 1), self.d % (self.q - 1),
                primes.modinv(self.q, self.p))

    def _private_op(self, value: int) -> int:
        """RSA private operation via CRT (about 3-4x faster than pow mod n)."""
        dp, dq, q_inv = self._crt
        m1 = pow(value % self.p, dp, self.p)
        m2 = pow(value % self.q, dq, self.q)
        h = (q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """PKCS#1 v1.5 decrypt; raises :class:`RSAError` on bad padding."""
        k = self.byte_length
        if len(ciphertext) != k:
            raise RSAError(
                f"ciphertext length mismatch: expected {k}, got {len(ciphertext)}"
            )
        value = int.from_bytes(ciphertext, "big")
        if value >= self.n:
            raise RSAError("ciphertext out of range")
        block = self._private_op(value).to_bytes(k, "big")
        if block[:2] != b"\x00\x02":
            raise RSAError("invalid PKCS#1 v1.5 padding header")
        try:
            separator = block.index(b"\x00", 2)
        except ValueError:
            raise RSAError("missing PKCS#1 v1.5 padding separator") from None
        if separator < 10:
            raise RSAError("PKCS#1 v1.5 padding too short")
        return block[separator + 1:]

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5 SHA-256 signature over ``message``."""
        k = self.byte_length
        block = _signature_block(message, k)
        return self._private_op(int.from_bytes(block, "big")).to_bytes(k, "big")

    def matches(self, public_key: RSAPublicKey) -> bool:
        """True if this private key is the pair of ``public_key``.

        This is the check behind the paper's ``OP_CHECKRSA512PAIR`` operator
        (implemented there with OpenSSL's ``VerifyPubKey``): the modulus must
        match and a probe value must survive an encrypt/decrypt round trip.
        """
        if self.n != public_key.n or self.e != public_key.e:
            return False
        probe = 0x5A5A5A5A
        return pow(pow(probe, public_key.e, self.n), self.d, self.n) == probe

    def to_bytes(self) -> bytes:
        """Compact serialization of ``(n, e, d, p, q)``."""
        k = self.byte_length
        half = (k + 1) // 2
        return (
            k.to_bytes(2, "big")
            + self.n.to_bytes(k, "big")
            + self.e.to_bytes(4, "big")
            + self.d.to_bytes(k, "big")
            + self.p.to_bytes(half, "big")
            + self.q.to_bytes(half, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPrivateKey":
        if len(data) < 2:
            raise RSAError("truncated RSA private key")
        k = int.from_bytes(data[:2], "big")
        half = (k + 1) // 2
        expected = 2 + k + 4 + k + half + half
        if len(data) != expected:
            raise RSAError(
                f"RSA private key length mismatch: expected {expected}, got {len(data)}"
            )
        offset = 2
        n = int.from_bytes(data[offset:offset + k], "big")
        offset += k
        e = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        d = int.from_bytes(data[offset:offset + k], "big")
        offset += k
        p = int.from_bytes(data[offset:offset + half], "big")
        offset += half
        q = int.from_bytes(data[offset:offset + half], "big")
        return cls(n=n, e=e, d=d, p=p, q=q)


def _signature_block(message: bytes, k: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of SHA-256(message) into ``k`` bytes."""
    digest_info = _SHA256_DIGEST_INFO + sha256(message)
    pad_len = k - 3 - len(digest_info)
    if pad_len < 8:
        raise RSAError(f"modulus too small for SHA-256 signatures: {k} bytes")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info


def generate_keypair(bits: int = 512,
                     rng: Optional[random.Random] = None) -> RSAPrivateKey:
    """Generate an RSA key pair with a modulus of exactly ``bits`` bits.

    The default of 512 bits matches the paper's choice (section 6 discusses
    the deliberate security/payload-size trade-off).  Pass a seeded
    ``random.Random`` for reproducible simulation keys; the default draws
    from the OS CSPRNG.

    The primes come from :func:`repro.crypto.primes.generate_prime`, which
    tests the candidates it draws at the average-case bound for random
    numbers (a composite slips through with probability ``<= 2**-80``)
    rather than at the worst-case one a hostile input would need, and
    which consumes ``rng`` identically however many rounds that takes --
    see that module for both regimes and the stream contract.
    """
    if bits < 128 or bits % 2:
        raise ValueError(f"unsupported RSA modulus size: {bits} bits")
    rng = rng or random.SystemRandom()
    half = bits // 2
    while True:
        p = primes.generate_prime(half, rng)
        q = primes.generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        carmichael = primes.lcm(p - 1, q - 1)
        if math.gcd(_PUBLIC_EXPONENT, carmichael) != 1:
            continue
        d = primes.modinv(_PUBLIC_EXPONENT, carmichael)
        return RSAPrivateKey(n=n, e=_PUBLIC_EXPONENT, d=d, p=p, q=q)
