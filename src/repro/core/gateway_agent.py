"""The gateway-side protocol agent.

A BcWAN gateway runs two modules (paper section 5): the *LoRa module*
(radio side, a Raspberry Pi in the PoC) and the *blockchain module* (the
daemon, a separate VM).  This agent glues them:

* radio: answers key requests with fresh ephemeral RSA-512 key pairs and
  receives data frames;
* chain: resolves ``@R`` via the on-chain directory, pushes the delivery
  to the recipient over TCP/IP, and — once the recipient's key-release
  offer lands in the mempool — claims it by *revealing* the ephemeral
  private key (Fig. 3 step 10).

The gateway does **not** wait for the offer to confirm before revealing
the key; the paper makes that choice deliberately (section 6) and accepts
the double-spend exposure — which :mod:`repro.attacks.double_spend`
exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.blockchain.transaction import Transaction
from repro.blockchain.wallet import KeyReleaseOffer, Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import DirectoryView
from repro.obs.exchange import ExchangeTracker
from repro.core.rewards import FixedPricing, PricingPolicy
from repro.crypto import rsa
from repro.errors import DaemonDown, ProtocolError, ValidationError
from repro.lora.device import LoRaRadio
from repro.lora.frames import DataFrame, KeyRequestFrame, KeyResponseFrame
from repro.p2p.message import (ClaimMessage, DeliveryAck, DeliveryMessage,
                               Envelope)
from repro.p2p.network import WANetwork
from repro.script.builder import parse_ephemeral_key_release
from repro.sim.core import Simulator

__all__ = ["GatewayAgent"]


@dataclass
class _PendingDelivery:
    """Gateway-side state for one in-flight exchange."""

    exchange_id: int
    ephemeral_key: rsa.RSAPrivateKey
    node_id: str
    quoted_price: int = 0


class GatewayAgent:
    """One gateway's protocol engine."""

    def __init__(self, sim: Simulator, name: str, radio: LoRaRadio,
                 daemon: BlockchainDaemon, wallet: Wallet,
                 directory: DirectoryView, wan: WANetwork,
                 cost_model: CostModel, tracker: ExchangeTracker,
                 rng: random.Random, price: int,
                 wait_for_confirmation: bool = False,
                 chain_id: str = "") -> None:
        self.sim = sim
        self.name = name
        self.radio = radio
        self.daemon = daemon
        self.wallet = wallet
        self.directory = directory
        self.wan = wan
        self.cost_model = cost_model
        self.tracker = tracker
        self.rng = rng
        # Step 9's "fixed or negotiated" output: the policy quotes the
        # price carried in each DeliveryMessage (a deployment that
        # negotiates assigns another policy after build).
        self.pricing: PricingPolicy = FixedPricing(price=price)
        # Section 6: waiting for the offer to confirm closes the
        # double-spend window at the cost of block-interval latency.
        self.wait_for_confirmation = wait_for_confirmation
        # Which sub-chain this gateway's daemon follows.  Empty in a flat
        # federation; in a hierarchical one it is the region's chain id,
        # and an ack from a recipient on a different sub-chain switches
        # the claim to the cross-region path.
        self.chain_id = chain_id

        self.deliveries_forwarded = 0
        self.claims_made = 0
        self.cross_region_claims = 0
        self.rewards_claimed = 0

        self._ephemeral: dict[int, _PendingDelivery] = {}
        self._awaiting_offer: dict[bytes, int] = {}  # offer txid -> exchange

        radio.on_receive(self._on_frame)
        daemon.register_protocol(DeliveryAck, self._on_ack)
        daemon.gossip.on_transaction.append(self._on_transaction)

    # -- radio side -----------------------------------------------------------

    def _on_frame(self, frame, rssi: float) -> None:
        if isinstance(frame, KeyRequestFrame):
            self.sim.process(self._serve_key_request(frame))
        elif isinstance(frame, DataFrame):
            self.sim.process(self._forward(frame))

    def _serve_key_request(self, frame: KeyRequestFrame):
        """Steps 1-2: generate an ephemeral pair, downlink ``ePk``."""
        if frame.nonce in self._ephemeral:
            # Duplicate request (retry); resend the same key.
            pending = self._ephemeral[frame.nonce]
        else:
            yield self.sim.timeout(self.cost_model.sample(
                self.cost_model.gateway_rsa_keygen, self.rng,
            ))
            keypair = rsa.generate_keypair(rng=self.rng)
            pending = _PendingDelivery(
                exchange_id=frame.nonce,
                ephemeral_key=keypair,
                node_id=frame.sender,
            )
            self._ephemeral[frame.nonce] = pending
            self.tracker.reach(frame.nonce, "keygen_done", gateway=self.name)
        transmission = yield from self.radio.send(KeyResponseFrame(
            sender=self.name,
            target=frame.sender,
            ephemeral_pubkey=pending.ephemeral_key.public_key.to_bytes(),
            nonce=frame.nonce,
        ))
        # "The first message from the gateway" starts the paper's clock.
        self.tracker.reach(frame.nonce, "epk_sent", at=transmission.start)

    def _forward(self, frame: DataFrame):
        """Steps 6-7: resolve ``@R`` on-chain, push the data over TCP/IP."""
        self.tracker.reach(frame.nonce, "data_received")
        pending = self._ephemeral.get(frame.nonce)
        if pending is None:
            self.tracker.fail(frame.nonce, "gateway lost ephemeral key state")
            return
        yield self.sim.timeout(self.cost_model.sample(
            self.cost_model.gateway_frame_handling, self.rng,
        ))
        try:
            announcement = yield self.daemon.lookup(
                lambda: self.directory.lookup(frame.recipient_address))
            reason = f"no directory entry for {frame.recipient_address}"
        except DaemonDown:
            announcement, reason = None, "gateway daemon down"
        if announcement is None:
            self.tracker.fail(frame.nonce, reason)
            self._ephemeral.pop(frame.nonce, None)
            return
        presented = self._presented_key(pending)
        pending.quoted_price = self.pricing.quote(
            frame.recipient_address, self.daemon.queue_length,
        )
        self.deliveries_forwarded += 1
        self.wan.send(self.name, announcement.endpoint, DeliveryMessage(
            delivery_id=frame.nonce,
            encrypted_message=frame.encrypted_message,
            ephemeral_pubkey=presented.public_key.to_bytes(),
            signature=frame.signature,
            node_id=frame.sender,
            gateway_pubkey_hash=self.wallet.pubkey_hash,
            price=pending.quoted_price,
            chain_id=self.chain_id,
        ), parent=self.tracker.leg(frame.nonce, "publication"))

    def _presented_key(self, pending: _PendingDelivery) -> rsa.RSAPrivateKey:
        """The ephemeral pair whose public half the recipient is shown:
        the one the node was served (the step a dishonest gateway swaps,
        see ``tests/attacks/test_mitm.py``)."""
        return pending.ephemeral_key

    # -- blockchain side ----------------------------------------------------------

    def _on_ack(self, envelope: Envelope) -> None:
        ack = envelope.payload
        if not ack.accepted:
            # The recipient failed the exchange when it refused.
            self._ephemeral.pop(ack.delivery_id, None)
            return
        if ack.delivery_id not in self._ephemeral:
            return
        if ack.chain_id != self.chain_id and ack.offer_tx_bytes:
            # The recipient settles on a different sub-chain: the offer
            # will never reach this daemon's mempool, so it travelled
            # serialized inside the ack instead.
            self.sim.process(self._claim(ack.delivery_id,
                                         self._remote_offer(ack),
                                         relay_to=envelope.source))
            return
        self._awaiting_offer[ack.offer_txid] = ack.delivery_id
        # The offer may have reached our mempool before the ack did.
        if (ack.offer_txid in self.daemon.node.mempool
                or self.daemon.node.chain.confirmations(ack.offer_txid)):
            self._begin_claim(ack.offer_txid)

    def _on_transaction(self, tx) -> None:
        if tx.txid in self._awaiting_offer:
            self._begin_claim(tx.txid)

    def _begin_claim(self, offer_txid: bytes) -> None:
        exchange_id = self._awaiting_offer.pop(offer_txid, None)
        if exchange_id is None:
            return
        self.sim.process(self._claim(exchange_id,
                                     self._local_offer(offer_txid)))

    def _local_offer(self, offer_txid: bytes):
        """The offer from this daemon's mempool or chain."""
        offer_tx = self.daemon.node.mempool.get(offer_txid)
        if offer_tx is None:
            found = self.daemon.node.chain.find_transaction(offer_txid)
            if found is None:
                raise ProtocolError("offer transaction vanished")
            offer_tx = found[0]
        if self.wait_for_confirmation:
            # Section 6's safe variant: poll until the offer is buried.
            while not self.daemon.node.chain.confirmations(offer_txid):
                yield self.sim.timeout(1.0)
        return offer_tx

    def _remote_offer(self, ack: DeliveryAck):
        """The offer serialized inside a cross-region ack, unconfirmed:
        this gateway has no view of the foreign chain to poll."""
        yield from ()
        try:
            offer_tx = Transaction.deserialize(ack.offer_tx_bytes)
        except (ValidationError, ValueError, IndexError):
            raise ProtocolError("undecodable cross-region offer") from None
        if offer_tx.txid != ack.offer_txid:
            raise ProtocolError("cross-region offer txid mismatch")
        return offer_tx

    def _claim(self, exchange_id: int, find_offer, relay_to: str = ""):
        """Step 10: audit the offer ``find_offer`` yields, then spend it,
        revealing ``eSk``.  The claim is broadcast through this daemon or,
        cross-region, sent to the recipient at ``relay_to``, which
        broadcasts it on the sub-chain the escrow lives on.
        """
        pending = self._ephemeral.pop(exchange_id, None)
        if pending is None:
            return
        try:
            # Audit the offer before revealing anything.
            offer = self._audit_offer((yield from find_offer), pending)
            if offer is None:
                raise ProtocolError("offer failed gateway audit")
            claim_tx = yield self.daemon.rpc(
                lambda: self.wallet.claim_key_release(
                    offer, pending.ephemeral_key.to_bytes())
            )
            if relay_to:
                self.wan.send(self.name, relay_to, ClaimMessage(
                    delivery_id=exchange_id,
                    claim_tx_bytes=claim_tx.serialize(),
                ))
                self.cross_region_claims += 1
                made = True
            else:
                made = yield self.daemon.call(
                    self.cost_model.daemon_tx_process,
                    lambda: self.daemon.gossip.broadcast_transaction(claim_tx),
                )
        except ProtocolError as exc:
            self.tracker.fail(exchange_id, str(exc))
            return
        except DaemonDown:
            self.tracker.fail(exchange_id, "gateway daemon down")
            return
        if made:
            self.claims_made += 1
            self.rewards_claimed += offer.amount

    def _audit_offer(self, offer_tx, pending: _PendingDelivery
                     ) -> Optional[KeyReleaseOffer]:
        """Check the recipient's transaction actually pays us as agreed."""
        expected_rsa = pending.ephemeral_key.public_key.to_bytes()
        for index, output in enumerate(offer_tx.outputs):
            parsed = parse_ephemeral_key_release(output.script_pubkey)
            if parsed is None:
                continue
            rsa_pubkey, gateway_hash, buyer_hash, locktime = parsed
            if rsa_pubkey != expected_rsa:
                continue
            if gateway_hash != self.wallet.pubkey_hash:
                continue
            if output.value < pending.quoted_price:
                continue
            return KeyReleaseOffer(
                transaction=offer_tx,
                output_index=index,
                rsa_pubkey=rsa_pubkey,
                gateway_pubkey_hash=gateway_hash,
                buyer_pubkey_hash=buyer_hash,
                refund_locktime=locktime,
            )
        return None
