"""The sensor-side protocol agent (the *node* of Fig. 3).

One exchange, from the node's perspective:

1. uplink a :class:`KeyRequestFrame`;
2. wait for the gateway's :class:`KeyResponseFrame` carrying ``ePk``
   (retrying after a timeout — LoRa frames do get lost);
3. AES-encrypt the reading with ``K``, wrap with ``ePk`` → ``Em``, and
   RSA-sign ``(Em, ePk)`` with ``Ska`` — charged at the cost model's
   STM32-class timings;
4. uplink the :class:`DataFrame` with ``Em``, ``Sig`` and ``@R``.

Everything after that is between the gateway, the recipient, and the
chain; the node goes back to sleep.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.costmodel import CostModel
from repro.core.messages import seal_message, sign_payload
from repro.obs.exchange import ExchangeTracker
from repro.core.provisioning import DeviceCredentials
from repro.crypto import rsa
from repro.lora.device import LoRaRadio
from repro.lora.frames import DataFrame, KeyRequestFrame, KeyResponseFrame
from repro.sim.core import Simulator

__all__ = ["NodeAgent"]


class NodeAgent:
    """Protocol logic for one end device."""

    # Key requests sent before the exchange fails for want of an ePk,
    # and the seconds each one waits for the ePk downlink.
    MAX_ATTEMPTS = 3
    KEY_RESPONSE_TIMEOUT = 12.0

    def __init__(self, sim: Simulator, credentials: DeviceCredentials,
                 radio: LoRaRadio, cost_model: CostModel,
                 tracker: ExchangeTracker, rng: random.Random) -> None:
        self.sim = sim
        self.credentials = credentials
        self.radio = radio
        self.cost_model = cost_model
        self.tracker = tracker
        self.rng = rng
        self._pending_keys: dict[int, object] = {}  # exchange id -> Event
        radio.on_receive(self._on_frame)

    @property
    def device_id(self) -> str:
        return self.credentials.device_id

    def _on_frame(self, frame, rssi: float) -> None:
        if not isinstance(frame, KeyResponseFrame):
            return
        if frame.target != self.device_id:
            return
        event = self._pending_keys.pop(frame.nonce, None)
        if event is not None and not event.triggered:
            event.succeed(frame)

    def start_exchange(self, plaintext: bytes):
        """Spawn the exchange as a process; returns the process event."""
        return self.sim.process(self.exchange(plaintext))

    def exchange(self, plaintext: bytes):
        """Generator implementing one node-side exchange."""
        exchange_id = self.tracker.new_exchange(self.device_id,
                                                plaintext).exchange_id

        response: Optional[KeyResponseFrame] = None
        for _attempt in range(self.MAX_ATTEMPTS):
            waiter = self.sim.event()
            self._pending_keys[exchange_id] = waiter
            yield from self.radio.send(
                KeyRequestFrame(sender=self.device_id, nonce=exchange_id)
            )
            outcome = yield self.sim.any_of(
                [waiter, self.sim.timeout(self.KEY_RESPONSE_TIMEOUT)]
            )
            if isinstance(outcome, KeyResponseFrame):
                response = outcome
                break
            self._pending_keys.pop(exchange_id, None)
        if response is None:
            self.tracker.fail(exchange_id, "no ePk response from gateway")
            return
        self.tracker.reach(exchange_id, "epk_received")

        try:
            ephemeral_pubkey = rsa.RSAPublicKey.from_bytes(
                response.ephemeral_pubkey
            )
        except rsa.RSAError as exc:
            self.tracker.fail(exchange_id, f"malformed ePk: {exc}")
            return

        # Step 3: K-encrypt then ePk-wrap (STM32-class cost).
        yield self.sim.timeout(self.cost_model.sample(
            self.cost_model.node_aes_encrypt
            + self.cost_model.node_rsa_encrypt, self.rng,
        ))
        encrypted_message = seal_message(
            plaintext, self.credentials.symmetric_key, ephemeral_pubkey,
            rng=self.rng,
        )
        # Step 4: sign (Em, ePk) with the provisioned secret key.
        yield self.sim.timeout(self.cost_model.sample(
            self.cost_model.node_rsa_sign, self.rng,
        ))
        signature = sign_payload(
            encrypted_message, response.ephemeral_pubkey,
            self.credentials.signing_key,
        )

        # Step 5: uplink (Em, Sig, @R).
        transmission = yield from self.radio.send(DataFrame(
            sender=self.device_id,
            encrypted_message=encrypted_message,
            signature=signature,
            recipient_address=self.credentials.recipient_address,
            nonce=exchange_id,
        ))
        self.tracker.reach(exchange_id, "data_sent", at=transmission.end)
