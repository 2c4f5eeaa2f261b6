"""RSA key-size economics (the paper's §6 trade-off, made quantitative).

"We chose RSA-512 ... This lowers the security as RSA-512 can be
brute-forced but the amount to spend in order to decrypt the data is
(nowadays) much more than the value that the foreign gateway is asking to
reveal the ephemeral private key."

The cost model anchors on the paper's own citation, *Factoring as a
Service* (Valenta et al., FC'16): RSA-512 factored for ~$75 in ~4 hours
on EC2.  Larger moduli scale by the General Number Field Sieve complexity

    L(n) = exp((64/9)^(1/3) * (ln n)^(1/3) * (ln ln n)^(2/3)).

The security margin of an exchange is then the ratio of factoring cost to
the value protected — a message worth a 100-unit micropayment is safe
behind RSA-512 exactly as the paper argues, while the same key size would
be reckless for high-value payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "gnfs_work",
    "factoring_cost_usd",
    "KeySizeEconomics",
]

# Calibration anchors from Valenta et al. (FC'16).
_ANCHOR_BITS = 512
_ANCHOR_COST_USD = 75.0


def gnfs_work(bits: int) -> float:
    """GNFS heuristic complexity for factoring a ``bits``-bit modulus."""
    if bits < 128:
        raise ConfigurationError(f"modulus too small to model: {bits} bits")
    ln_n = bits * math.log(2)
    ln_ln_n = math.log(ln_n)
    return math.exp(
        (64.0 / 9.0) ** (1.0 / 3.0) * ln_n ** (1.0 / 3.0) * ln_ln_n ** (2.0 / 3.0)
    )


def factoring_cost_usd(bits: int) -> float:
    """Estimated cloud cost (USD) to factor a ``bits``-bit RSA modulus."""
    return _ANCHOR_COST_USD * gnfs_work(bits) / gnfs_work(_ANCHOR_BITS)


@dataclass(frozen=True)
class KeySizeEconomics:
    """One row of the key-size ablation: cost, payload, airtime."""

    bits: int
    factoring_cost_usd: float
    lora_payload_bytes: int
    economical_to_attack_at_usd: float

    @classmethod
    def for_bits(cls, bits: int) -> "KeySizeEconomics":
        """Summarize one RSA modulus size.

        ``lora_payload_bytes`` is the BcWAN data-frame payload: one RSA
        block of wrapped ciphertext plus one RSA block of signature plus
        the 4-byte header (the paper's 128 + 4 at 512 bits).
        """
        block = (bits + 7) // 8
        return cls(
            bits=bits,
            factoring_cost_usd=factoring_cost_usd(bits),
            lora_payload_bytes=2 * block + 4,
            economical_to_attack_at_usd=factoring_cost_usd(bits),
        )
