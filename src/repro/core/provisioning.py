"""Device provisioning (paper section 4.4).

Before deployment, a node and its recipient must share:

* a 32-byte AES-256 symmetric key ``K`` (confidentiality);
* an RSA key pair: the node holds the secret key ``Ska``, the recipient
  holds the public key ``Pk`` (integrity/authenticity);
* the recipient's blockchain address ``@R`` (routing identifier).

"A provisioning phase is therefore needed in order to load the necessary
keys on the node" — :func:`provision_device` is that phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto import rsa
from repro.errors import ConfigurationError

__all__ = ["DeviceCredentials", "RecipientRegistry", "provision_device"]


@dataclass(frozen=True)
class DeviceCredentials:
    """Everything loaded onto one node at provisioning time."""

    device_id: str
    symmetric_key: bytes          # K — shared with the recipient
    signing_key: rsa.RSAPrivateKey  # Ska — node-only
    recipient_address: str        # @R

    def __post_init__(self) -> None:
        if len(self.symmetric_key) != 32:
            raise ConfigurationError(
                f"symmetric key must be 32 bytes, got {len(self.symmetric_key)}"
            )


@dataclass
class RecipientRegistry:
    """The recipient-side provisioning database.

    Maps device ids to the verification material the recipient needs:
    the shared ``K`` and the node's RSA public key.
    """

    symmetric_keys: dict[str, bytes] = field(default_factory=dict)
    public_keys: dict[str, rsa.RSAPublicKey] = field(default_factory=dict)

    def register(self, device_id: str, symmetric_key: bytes,
                 public_key: rsa.RSAPublicKey) -> None:
        if device_id in self.symmetric_keys:
            raise ConfigurationError(f"device already provisioned: {device_id}")
        self.symmetric_keys[device_id] = symmetric_key
        self.public_keys[device_id] = public_key

    def knows(self, device_id: str) -> bool:
        return device_id in self.symmetric_keys

    def key_for(self, device_id: str) -> bytes:
        try:
            return self.symmetric_keys[device_id]
        except KeyError:
            raise ConfigurationError(f"unknown device: {device_id}") from None

    def pubkey_for(self, device_id: str) -> rsa.RSAPublicKey:
        try:
            return self.public_keys[device_id]
        except KeyError:
            raise ConfigurationError(f"unknown device: {device_id}") from None


def provision_device(device_id: str, recipient_address: str,
                     registry: RecipientRegistry,
                     rng: Optional[random.Random] = None
                     ) -> DeviceCredentials:
    """Generate and exchange a device's keys with its recipient.

    Returns the credentials to load on the node; the recipient-side
    material is entered into ``registry``.
    """
    rng = rng or random.SystemRandom()
    symmetric_key = bytes(rng.randrange(256) for _ in range(32))
    signing_key = rsa.generate_keypair(rng=rng)
    registry.register(device_id, symmetric_key, signing_key.public_key)
    return DeviceCredentials(
        device_id=device_id,
        symmetric_key=symmetric_key,
        signing_key=signing_key,
        recipient_address=recipient_address,
    )
