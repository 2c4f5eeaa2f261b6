"""Cryptographic substrate for the BcWAN reproduction.

Everything here is implemented from scratch except the digests, which go
through ``hashlib`` (SHA-256 is cross-validated against the pure-Python
oracle in ``tests/oracles/``; RIPEMD-160 falls back to the in-tree
:mod:`repro.crypto.ripemd160` where the provider lacks it):

* :mod:`repro.crypto.aes` / :mod:`repro.crypto.modes` — AES-256-CBC for the
  node→recipient payload (paper Fig. 4);
* :mod:`repro.crypto.rsa` — RSA-512 ephemeral key pairs and node signatures;
* :mod:`repro.crypto.ecdsa` — secp256k1 transaction signatures;
* :mod:`repro.crypto.hashing`, :mod:`repro.crypto.ripemd160` — hashing
  (HASH160, double SHA-256);
* :mod:`repro.crypto.base58`, :mod:`repro.crypto.keys` — addresses.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.ecdsa import (
    ECDSAError,
    PrivateKey,
    PublicKey,
    Signature,
    generate_private_key,
)
from repro.crypto.hashing import double_sha256, hash160, sha256
from repro.crypto.keys import KeyPair, address_from_pubkey
from repro.crypto.modes import (
    PaddingError,
    decrypt_cbc,
    encrypt_cbc,
    pad_pkcs7,
    random_iv,
    unpad_pkcs7,
)
from repro.crypto.rsa import (
    RSAError,
    RSAPrivateKey,
    RSAPublicKey,
    generate_keypair,
)

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "ECDSAError",
    "KeyPair",
    "PaddingError",
    "PrivateKey",
    "PublicKey",
    "RSAError",
    "RSAPrivateKey",
    "RSAPublicKey",
    "Signature",
    "address_from_pubkey",
    "decrypt_cbc",
    "double_sha256",
    "encrypt_cbc",
    "generate_keypair",
    "generate_private_key",
    "hash160",
    "pad_pkcs7",
    "random_iv",
    "sha256",
    "unpad_pkcs7",
]
