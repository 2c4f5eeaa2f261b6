"""Processing-time model for the simulated testbed.

Crypto and daemon operations execute *for real* in this reproduction
(correctness), but their wall-clock cost on our machine says nothing about
the paper's hardware (a Nucleo-144 node, Raspberry Pi gateways, 4-core
512 MB PlanetLab VMs, a Multichain daemon answering JSON-RPC).  The
simulator therefore charges each operation a modeled duration from this
cost model.

The defaults are calibrated so that the end-to-end no-verification
exchange reproduces the paper's Fig. 5 mean of ~1.6 s with the paper's
workload; they decompose into per-leg costs justified in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Mean processing times in seconds for each modeled operation.

    Sampled durations are lognormal around the mean with shape
    ``jitter_sigma`` (heavy-ish tail, like real daemon service times); set
    ``jitter_sigma=0`` for deterministic costs.

    Node (Nucleo-144, STM32F746 @216 MHz, software crypto):

    :param node_aes_encrypt: AES-256-CBC over one or two blocks.
    :param node_rsa_encrypt: RSA-512 public-key wrap of the 34-byte bundle.
    :param node_rsa_sign: RSA-512 private-key signature over (Em, ePk).

    Gateway (Raspberry Pi + separate Multichain VM):

    :param gateway_rsa_keygen: ephemeral RSA-512 key-pair generation.
    :param gateway_frame_handling: radio-frame parse/dispatch.
    :param daemon_rpc: one BcWAN-daemon → Multichain JSON-RPC round
        (create/sign/send a transaction, scan for one).
    :param daemon_lookup: blockchain directory scan for a recipient IP.
    :param daemon_tx_process: admitting a gossiped transaction.
    :param daemon_block_process: block connect without script verification.

    Recipient (application server):

    :param recipient_rsa_verify: RSA-512 signature check.
    :param recipient_unwrap: RSA-512 private decryption plus AES decrypt.
    """

    node_aes_encrypt: float = 0.004
    node_rsa_encrypt: float = 0.012
    node_rsa_sign: float = 0.160
    gateway_rsa_keygen: float = 0.100
    gateway_frame_handling: float = 0.003
    daemon_rpc: float = 0.120
    daemon_lookup: float = 0.040
    daemon_tx_process: float = 0.006
    daemon_block_process: float = 0.035
    recipient_rsa_verify: float = 0.009
    recipient_unwrap: float = 0.025
    jitter_sigma: float = 0.18

    def __post_init__(self) -> None:
        for name in (
            "node_aes_encrypt", "node_rsa_encrypt", "node_rsa_sign",
            "gateway_rsa_keygen", "gateway_frame_handling", "daemon_rpc",
            "daemon_lookup", "daemon_tx_process", "daemon_block_process",
            "recipient_rsa_verify", "recipient_unwrap",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"negative cost: {name}")
        if self.jitter_sigma < 0:
            raise ConfigurationError(
                f"jitter sigma must be non-negative: {self.jitter_sigma}"
            )

    def sample(self, mean: float, rng: Optional[random.Random]) -> float:
        """One sampled duration around ``mean``."""
        if mean <= 0:
            return 0.0
        if self.jitter_sigma == 0 or rng is None:
            return mean
        import math
        # Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
        mu = math.log(mean) - self.jitter_sigma ** 2 / 2
        return rng.lognormvariate(mu, self.jitter_sigma)
