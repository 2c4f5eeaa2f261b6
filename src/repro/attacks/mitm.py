"""Man-in-the-middle gateways: why the node signs ``(Em ‖ ePk)``.

Section 5.1: "Using the shared asymmetric key with the recipient (Sk), we
insure to the recipient the authenticity of the message and that (ePk)
was the genuine ephemeral public key used in the process."

The attack the binding prevents: a malicious gateway hands the node one
key pair but presents a *different* public key to the recipient — hoping
to get paid for revealing a key that never protected anything, or to
re-wrap the data under a key it controls and sell it twice.  Because the
node's RSA signature covers both ``Em`` and the exact ``ePk`` bytes, any
substitution invalidates the signature and the recipient refuses before
locking a single unit.

:class:`MaliciousGatewayAgent` implements the substitution; the test
suite and the security example run it inside a real federation.
"""

from __future__ import annotations

from repro.core.gateway_agent import GatewayAgent
from repro.crypto import rsa

__all__ = ["MaliciousGatewayAgent"]


class MaliciousGatewayAgent(GatewayAgent):
    """A gateway that substitutes its own ``ePk`` in the delivery.

    Everything up to the delivery push is honest — the node is served a
    genuine ephemeral key and encrypts against it.  At step 7 the
    gateway swaps in a *second* key pair it generated on the side,
    betting the recipient won't notice.  (It will: the signature check
    of step 8 covers the key bytes.)
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.substitutions_attempted = 0

    def _presented_key(self, pending) -> rsa.RSAPrivateKey:
        # The attack: generate a fresh pair and present ITS public key.
        substitute = rsa.generate_keypair(self.rsa_bits, self.rng)
        pending.ephemeral_key = substitute  # claim with the swapped key
        self.substitutions_attempted += 1
        return substitute
