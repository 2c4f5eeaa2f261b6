"""The altruistic-blockchain baseline (Durand et al. [26]).

The related-work system the paper positions itself against: a blockchain
acts purely as an *activation/directory* server; gateways forward data to
the recipient resolved on-chain but receive **no reward**.  Latency is
lower than BcWAN (no fair-exchange transactions on the critical path),
but — as the paper argues — "their solution does not incentive gateways
of the network and thus it reduces users interest in deploying gateways".

The model makes that argument quantitative with a ``participation``
parameter: the fraction of foreign gateways willing to forward for free.
Delivery rate degrades linearly with participation, while BcWAN holds at
(radio-loss-limited) full delivery.  The workload is
:class:`repro.core.testbed.Testbed`'s, shared with BcWAN and the legacy
baseline; this module adds only the forwarding decision.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.lorawan import UplinkBaseline, owner_of
from repro.core.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.lora.frames import DataFrame
from repro.p2p.message import Envelope

__all__ = ["AltruisticBaseline"]

# Directory lookup against the local chain copy.
_LOOKUP = 0.040
# Gateway frame handling.
_GW_FORWARDING = 0.004
# Recipient-side decryption (static keys; no ephemeral unwrap).
_DECRYPT = 0.012


class AltruisticBaseline(UplinkBaseline):
    """Blockchain-as-directory forwarding with voluntary gateways."""

    def __init__(self, config: Optional[NetworkConfig] = None,
                 participation: float = 1.0) -> None:
        if not 0 <= participation <= 1:
            raise ConfigurationError(
                f"participation must be in [0, 1]: {participation}"
            )
        super().__init__(config, [])
        self.participation = participation
        self.drops_unwilling = 0
        for name in self.config.site_names:
            self.wan.register(name, lambda envelope: self.sim.process(
                self._at_recipient(envelope)))
        decision_rng = self.rngs.stream("participation")
        self.gateway_willing = [
            decision_rng.random() < participation
            for _ in range(self.config.num_gateways)
        ]

    def _at_gateway(self, gateway_index: int, frame):
        if not isinstance(frame, DataFrame):
            return
        self.tracker.reach(frame.nonce, "data_received",
                           gateway=f"gw-{gateway_index}")
        if not self.gateway_willing[gateway_index]:
            # No incentive, no forwarding — the argument against
            # altruistic designs made concrete.
            self.drops_unwilling += 1
            self.tracker.fail(frame.nonce, "gateway unwilling (no incentive)")
            return
        yield self.sim.timeout(_GW_FORWARDING + _LOOKUP)
        self.wan.send(self.config.site_names[gateway_index],
                      self.config.site_names[owner_of(frame.sender)],
                      frame)

    def _at_recipient(self, envelope: Envelope):
        frame = envelope.payload
        if not isinstance(frame, DataFrame):
            return
        yield self.sim.timeout(_DECRYPT)
        self.tracker.reach(frame.nonce, "delivered")
        self.tracker.reach(frame.nonce, "decrypted")
