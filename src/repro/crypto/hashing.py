"""Hashing facade used by the rest of the repository.

Everything goes through :mod:`hashlib` (C speed).  RIPEMD-160 is the one
digest a provider may lack — OpenSSL 3 moved it out of the default
provider — so it is probed once at import, and the pure-Python
:mod:`repro.crypto.ripemd160` is the single fallback.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

__all__ = ["sha256", "double_sha256", "ripemd160", "hash160", "hmac_sha256"]

try:
    hashlib.new("ripemd160")
except ValueError:
    from repro.crypto.ripemd160 import ripemd160
else:
    def ripemd160(data: bytes) -> bytes:
        """RIPEMD-160 of ``data``."""
        return hashlib.new("ripemd160", data).digest()


def sha256(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def double_sha256(data: bytes) -> bytes:
    """SHA-256 applied twice — the Bitcoin-family transaction/block hash."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash160(data: bytes) -> bytes:
    """RIPEMD160(SHA256(data)) — the Bitcoin-family address hash."""
    return ripemd160(hashlib.sha256(data).digest())


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256, used by deterministic ECDSA nonces (RFC 6979)."""
    return _hmac.new(key, message, hashlib.sha256).digest()
