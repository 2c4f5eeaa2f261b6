"""Blockchain key pairs and addresses.

A BcWAN *blockchain address* (the ``@R`` of the paper) is derived exactly
like a Bitcoin P2PKH address: ``Base58Check(version || HASH160(pubkey))``.
End devices are provisioned with the recipient's address and use it as the
routing identifier; gateways resolve it to an IP address via the on-chain
directory (paper section 4.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from repro.crypto import base58, ecdsa
from repro.crypto.hashing import hash160

__all__ = ["ADDRESS_VERSION", "KeyPair", "address_from_pubkey"]

# Version byte for addresses; 0x19 keeps BcWAN addresses visually distinct
# from Bitcoin mainnet ones (they start with 'B').
ADDRESS_VERSION = 0x19


def address_from_pubkey(pubkey: ecdsa.PublicKey) -> str:
    """Derive the Base58Check address of a public key."""
    return base58.encode_check(bytes([ADDRESS_VERSION]) + hash160(pubkey.to_bytes()))


@dataclass(frozen=True)
class KeyPair:
    """An ECDSA key pair with its derived address, used by wallets.

    ``address`` and ``pubkey_hash`` are derived once per instance; like the
    public key they are caches, not fields, so equality and hashing see
    the private key only.
    """

    private_key: ecdsa.PrivateKey

    @property
    def public_key(self) -> ecdsa.PublicKey:
        return self.private_key.public_key

    @cached_property
    def address(self) -> str:
        return address_from_pubkey(self.public_key)

    @cached_property
    def pubkey_hash(self) -> bytes:
        return hash160(self.public_key.to_bytes())

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        return cls(private_key=ecdsa.generate_private_key(rng))

    def sign(self, message_hash: bytes) -> ecdsa.Signature:
        return self.private_key.sign(message_hash)
