"""The recipient-side protocol agent (home actor / application server).

On a delivery push from a foreign gateway (Fig. 3 step 7) the recipient:

1. authenticates ``(Em, ePk)`` against the node's provisioned RSA public
   key (step 8);
2. creates and broadcasts the key-release *offer* — payment locked to the
   revelation of ``eSk`` (step 9, Listing 1);
3. watches mempool and blocks for a spend of that escrow; the gateway's
   *claim* carries ``eSk`` in the clear in its unlocking script, with
   which the recipient unwraps ``Em`` and finally AES-decrypts the reading.

If the gateway never claims, the first block to reach the offer's
lock-time starts :meth:`RecipientAgent.reclaim_expired`, which recovers
the locked funds through the script's timelocked refund branch.

:class:`RecipientAgent` is that state machine, once.  What differs
between device classes is which ledger state the host keeps and how it
reaches it, and that sits behind the agent's *ledger access*:

* :class:`NodeLedger` — a co-located full node: RPC-timed transaction
  builds, the local mempool's verdict on every broadcast, its chain's
  blocks as spend watch and clock, and a UTXO-checked refund;
* :class:`SpvLedger` — a duty-cycled light host: a wallet fed by proven
  transactions only (so funding may stall on proofs in flight), the
  header tip as the only chain clock, the escrow outpoint watched through
  the serving node's filter, a rebroadcast watchdog in place of a mempool
  verdict, and payments counted *confirmed* on a verified Merkle proof.

Both offer the same steps: ``attach(handlers, on_spend, on_tip)``,
``height``, ``submit(tx)``, ``lock_payment(message, payment_leg)``,
``refund(offer)`` and ``stats()``; the three that may wait are generators
the agent delegates to, so a step with nothing to wait for adds no
simulator event.
Relaying a cross-region claim onto the recipient's sub-chain is one
``submit`` by the agent, whichever access it runs over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.wallet import KeyReleaseOffer, Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.core.messages import open_message, verify_payload
from repro.core.provisioning import RecipientRegistry
from repro.core.rewards import RecipientBudget
from repro.crypto import rsa
from repro.errors import (BcWANError, DaemonDown, ProtocolError,
                          ValidationError)
from repro.light.messages import TxProofMessage
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet
from repro.obs.exchange import ExchangeTracker
from repro.obs.registry import Counted, StatsView, attrs
from repro.p2p.message import (ClaimMessage, DeliveryAck, DeliveryMessage,
                               Envelope, TxMessage)
from repro.p2p.network import WANetwork
from repro.script.builder import RSA_PAIR_PLACEHOLDER
from repro.sim.core import Simulator

__all__ = ["RecipientAgent", "NodeLedger", "SpvLedger", "OfferRefused"]

# Payload type -> the agent's handler, as an access routes them to it.
Handlers = dict[type, Callable[[Envelope], None]]


class OfferRefused(BcWANError):
    """A ledger access could not lock the payment; ``str()`` is the reason
    the gateway is nacked with."""


class NodeLedger(Counted):
    """Ledger access through the actor's own full node and its daemon."""

    GAUGES = {"balance": "wallet.balance"}

    def __init__(self, daemon: BlockchainDaemon, wallet: Wallet) -> None:
        self.daemon = daemon
        self.wallet = wallet

    def attach(self, handlers: Handlers,
               on_spend: Callable[[Transaction], None],
               on_tip: Callable[[int], None]) -> None:
        for payload_type, handler in handlers.items():
            self.daemon.register_protocol(payload_type, handler)
        # Claim detection: every transaction the local mempool admits, our
        # own broadcasts included, and every one of each connected block.
        self.daemon.gossip.on_transaction.append(on_spend)

        def on_block(block, height: int) -> None:
            for tx in block.transactions[1:]:
                on_spend(tx)
            on_tip(height)

        self.daemon.node.chain.add_connect_listener(on_block)

    @property
    def height(self) -> int:
        return self.daemon.node.chain.height

    def submit(self, tx: Transaction):
        """The local mempool's verdict on ``tx``; gossip relays it if
        admitted.  A daemon that will not serve the job raises
        :class:`~repro.errors.DaemonDown`."""
        return (yield self.daemon.call(
            self.daemon.cost_model.daemon_tx_process,
            lambda: self.daemon.gossip.broadcast_transaction(tx),
        ))

    def lock_payment(self, message: DeliveryMessage, payment_leg):
        """Build the offer in an RPC job, then take the local mempool's
        verdict on it; gossip relays an admitted offer."""
        try:
            offer = yield self.daemon.rpc(
                lambda: self.wallet.create_key_release_offer(
                    rsa_pubkey=message.ephemeral_pubkey,
                    gateway_pubkey_hash=message.gateway_pubkey_hash,
                    amount=message.price,
                )
            )
        except ValidationError as exc:
            raise OfferRefused(f"cannot fund offer: {exc}") from exc
        try:
            admitted = yield from self.submit(offer.transaction)
        except DaemonDown:
            self.wallet.release_pending(offer.transaction)
            raise
        if not admitted:
            self.wallet.release_pending(offer.transaction)
            raise OfferRefused("offer rejected by mempool")
        return offer

    def refund(self, offer: KeyReleaseOffer):
        """Whether the refund entered the local mempool."""
        if self.daemon.node.chain.utxos.get(offer.outpoint) is None:
            return False  # already spent (claimed late)
        try:
            refund_tx = yield self.daemon.rpc(
                lambda: self.wallet.refund_key_release(offer)
            )
            return (yield from self.submit(refund_tx))
        except (ValidationError, DaemonDown):
            return False


class SpvLedger(Counted):
    """Ledger access through an SPV client and its serving full nodes.

    Everything consensus-critical (block bodies, UTXO bookkeeping, script
    validation) stays on the full nodes; the light host handles only its
    own transactions, each at most a few hundred bytes.
    """

    # Funding proofs may still be in flight to a just-woken device: stall
    # this many times, this long each, before declaring poverty.
    FUNDING_RETRIES = 8
    FUNDING_WAIT = 2.0
    # A broadcast no filter push echoed within the timeout is resent, at
    # most this many times.
    REBROADCAST_TIMEOUT = 15.0
    REBROADCAST_LIMIT = 3
    COUNTERS = attrs("payments_confirmed", "rebroadcasts", "funding_stalls")
    GAUGES = {"balance": "wallet.balance"}

    def __init__(self, spv: SpvClient, wallet: LightWallet,
                 refund_delta: int) -> None:
        self.spv = spv
        self.wallet = wallet
        # The refund branch's locktime rides the *header* tip — the only
        # chain clock a light client has.
        self.refund_delta = refund_delta
        self._offer_txids: set[bytes] = set()
        # Outpoints some filter-pushed transaction spends: a broadcast not
        # pushed itself that spends one of them lost the conflict.
        self._spent: set[OutPoint] = set()

    def attach(self, handlers: Handlers,
               on_spend: Callable[[Transaction], None],
               on_tip: Callable[[int], None]) -> None:
        for payload_type, handler in handlers.items():
            self.spv.register_handler(payload_type, handler)
        self.spv.on_match.append(lambda tx, _height: self._spent.update(
            tx_input.outpoint for tx_input in tx.inputs))
        self.spv.on_match.append(lambda tx, _height: on_spend(tx))
        self.spv.on_proof.append(self._on_proof)
        self.spv.on_tip.append(on_tip)
        # Watch own address from genesis: funding coins, change, and
        # refunds all land back here as proven credits.
        self.spv.watch(pubkey_hashes=(self.wallet.pubkey_hash,),
                       from_height=0)

    @property
    def height(self) -> int:
        return self.spv.chain.tip_height

    # -- broadcast through the serving peer --------------------------------------

    def submit(self, tx: Transaction, parent=None):
        """Hand ``tx`` to the serving peer; a filter push echoes it.

        Nothing to wait for on this host, so the verdict is "sent".
        ``parent`` is the span the wire messages hang from.
        """
        yield from ()
        self.spv.watch(txids=(tx.txid,))
        self._send(tx, attempts=0, parent=parent)
        return True

    def _send(self, tx: Transaction, attempts: int, parent=None) -> None:
        self.spv.network.send(self.spv.name, self.spv.serving_peer,
                              TxMessage(transaction=tx), parent=parent)
        self.spv.sim.call_in(self.REBROADCAST_TIMEOUT,
                             lambda: self._check_echo(tx, attempts + 1))

    def _check_echo(self, tx: Transaction, attempts: int) -> None:
        """No filter push echoed our broadcast: the peer lost or never
        accepted it.  Resend — possibly to a new peer after failover."""
        if tx.txid in self.spv.matched_txs:
            return  # echoed by a filter push (a confirmation is one too)
        if any(tx_input.outpoint in self._spent for tx_input in tx.inputs):
            return  # lost the conflict: a pushed transaction spends an input
        if attempts > self.REBROADCAST_LIMIT:
            return  # give up; tracker timeouts handle the exchange
        self.rebroadcasts += 1
        self._send(tx, attempts)

    def lock_payment(self, message: DeliveryMessage, payment_leg):
        """Build the offer from proven coins, then hand it to the serving
        peer under ``payment_leg()``, the span wire messages hang from."""
        for _attempt in range(self.FUNDING_RETRIES):
            try:
                offer = self.wallet.create_key_release_offer(
                    rsa_pubkey=message.ephemeral_pubkey,
                    gateway_pubkey_hash=message.gateway_pubkey_hash,
                    amount=message.price,
                    refund_locktime=self.height + self.refund_delta,
                )
                break
            except ValidationError:
                self.funding_stalls += 1
                self.spv.catch_up()
                yield self.spv.sim.timeout(self.FUNDING_WAIT)
        else:
            raise OfferRefused("cannot fund offer")
        self._offer_txids.add(offer.transaction.txid)
        # Watch the escrow before it exists on the wire: the claim spends
        # this outpoint, and the filter must already cover it when the
        # gateway's claim hits the serving node's mempool.
        self.spv.watch(outpoints=(offer.outpoint,))
        yield from self.submit(offer.transaction, parent=payment_leg())
        return offer

    def refund(self, offer: KeyReleaseOffer):
        """Whether the refund was handed to the serving peer.

        A light client cannot consult the UTXO set, so a raced claim is
        resolved by the full nodes: the refund simply loses the conflict,
        and the claim's filter push decrypts as usual and stops the
        refund's rebroadcasts.
        """
        try:
            refund_tx = self.wallet.refund_key_release(offer)
        except ValidationError:
            return False
        return (yield from self.submit(refund_tx))

    # -- filter pushes ------------------------------------------------------------

    def _on_proof(self, proof: TxProofMessage) -> None:
        tx = self.spv.matched_txs.get(proof.txid)
        if tx is None:
            return  # proof outran its filter push; replayed on the match
        self.wallet.apply_confirmed_tx(tx)
        if proof.txid in self._offer_txids:
            self._offer_txids.discard(proof.txid)
            self.payments_confirmed += 1


@dataclass
class _PendingSettlement:
    """Recipient-side state awaiting a spend of the escrow."""

    message: DeliveryMessage
    offer: KeyReleaseOffer
    refund_sent: bool = False


class RecipientAgent(Counted):
    """One actor's application-server agent.

    ``stats()`` shows its own readings and its ledger access's.
    """

    COUNTERS = attrs(
        "messages_received", "quotes_refused", "messages_decrypted",
        "payments_made", "refunds_taken", "claims_relayed")
    GAUGES = {"pending_settlements": lambda agent: len(agent._pending)}

    def __init__(self, sim: Simulator, name: str,
                 ledger: Union[NodeLedger, SpvLedger],
                 registry: RecipientRegistry, wan: WANetwork,
                 cost_model: CostModel, tracker: ExchangeTracker,
                 rng: random.Random, chain_id: str = "") -> None:
        self.sim = sim
        self.name = name
        self.ledger = ledger
        self.registry = registry
        self.wan = wan
        self.cost_model = cost_model
        self.tracker = tracker
        self.rng = rng
        # Negotiation guard: quotes above the budget are refused before
        # any money is locked (the gateway keeps an undecryptable blob).
        # Unbounded unless a deployment assigns a tighter one after build.
        self.budget = RecipientBudget(max_price=10**9)
        # Which sub-chain this recipient settles on (empty = flat).
        self.chain_id = chain_id

        self._pending: dict[OutPoint, _PendingSettlement] = {}
        self._deliveries: set[tuple[str, int]] = set()  # (gateway, id)
        ledger.attach({DeliveryMessage: self._on_delivery,
                       ClaimMessage: self._on_claim},
                      self._on_spend, self._on_tip)

    @property
    def address(self) -> str:
        """The blockchain address (``@R``) nodes are provisioned with."""
        return self.ledger.wallet.address

    # -- the fair exchange ---------------------------------------------------------

    def _on_delivery(self, envelope: Envelope) -> None:
        # The WAN may hand over one push twice: a delivery already being
        # settled (or settled) locks no second payment.
        delivery = (envelope.source, envelope.payload.delivery_id)
        if delivery not in self._deliveries:
            self._deliveries.add(delivery)
            self.sim.process(self._settle(envelope))

    def _settle(self, envelope: Envelope):
        message = envelope.payload
        assert isinstance(message, DeliveryMessage)
        self.messages_received += 1
        self.tracker.reach(message.delivery_id, "delivered",
                           recipient=self.name, price=message.price)

        # Step 8: authenticate the payload.
        yield self.sim.timeout(self.cost_model.sample(
            self.cost_model.recipient_rsa_verify, self.rng,
        ))
        if not self.registry.knows(message.node_id):
            self._refuse(envelope, "unknown device")
            return
        node_pubkey = self.registry.pubkey_for(message.node_id)
        if not verify_payload(message.encrypted_message,
                              message.ephemeral_pubkey,
                              message.signature, node_pubkey):
            self._refuse(envelope, "bad signature")
            return
        if not self.budget.accepts(message.price):
            self.quotes_refused += 1
            self._refuse(
                envelope,
                f"quote {message.price} above budget {self.budget.max_price}",
            )
            return

        # Step 9: lock payment to the key revelation.  The leg is looked
        # up when a message is sent, not before the ledger access waited.
        payment_leg = partial(self.tracker.leg, message.delivery_id, "payment")
        try:
            offer = yield from self.ledger.lock_payment(message, payment_leg)
        except OfferRefused as refusal:
            self._refuse(envelope, str(refusal))
            return
        except DaemonDown:
            # A dead host sends no nack.
            self.tracker.fail(message.delivery_id, "recipient daemon down")
            return
        self.payments_made += 1
        self.tracker.reach(message.delivery_id, "offer_sent")
        self._pending[offer.outpoint] = _PendingSettlement(message, offer)
        # Cross-region: the gateway's daemon follows a different
        # sub-chain, so the offer rides along serialized — it is the only
        # way the gateway will ever see it.
        cross_region = message.chain_id != self.chain_id
        self.wan.send(self.name, envelope.source, DeliveryAck(
            delivery_id=message.delivery_id,
            accepted=True,
            offer_txid=offer.transaction.txid,
            chain_id=self.chain_id,
            offer_tx_bytes=(offer.transaction.serialize()
                            if cross_region else b""),
        ), parent=payment_leg())

    def _refuse(self, envelope: Envelope, reason: str) -> None:
        self.tracker.fail(envelope.payload.delivery_id, reason)
        self.wan.send(self.name, envelope.source, DeliveryAck(
            delivery_id=envelope.payload.delivery_id,
            accepted=False,
            reason=reason,
            chain_id=self.chain_id,
        ))

    # -- cross-region claims ----------------------------------------------------------

    def _on_claim(self, envelope: Envelope) -> None:
        self.sim.process(self._relay_claim(envelope.payload))

    def _relay_claim(self, message: ClaimMessage):
        """Submit a foreign gateway's claim on *our* sub-chain.

        The escrow output lives here, so the reveal must happen here; the
        gateway only signed the claim, it cannot reach this chain.  The
        claim then reaches the usual spend watch, which decrypts exactly
        as in the intra-region flow.
        """
        try:
            claim_tx = Transaction.deserialize(message.claim_tx_bytes)
        except ValidationError:
            self.tracker.fail(message.delivery_id,
                              "undecodable cross-region claim")
            return
        try:
            relayed = yield from self.ledger.submit(claim_tx)
            reason = "cross-region claim rejected"
        except DaemonDown:
            relayed, reason = False, "recipient daemon down"
        if relayed:
            self.claims_relayed += 1
        else:
            self.tracker.fail(message.delivery_id, reason)

    # -- escrow spends: the claim, or our own refund -------------------------------

    def _on_spend(self, tx: Transaction) -> None:
        for tx_input in tx.inputs:
            settlement = self._pending.get(tx_input.outpoint)
            if settlement is not None:
                self.sim.process(self._decrypt(tx_input, settlement))
                return

    def _decrypt(self, spend_input, settlement: _PendingSettlement):
        """The gateway's claim revealed ``eSk``: recover the plaintext.

        A settlement leaves ``_pending`` here and nowhere else — when a
        spend of its escrow is *seen* — so a refund that loses the race to
        a late claim still decrypts.
        """
        exchange_id = settlement.message.delivery_id
        elements = spend_input.script_sig.elements
        if len(elements) != 3 or not isinstance(elements[2], bytes):
            return  # garbage — not a Listing-1 unlocking script
        if settlement.offer.outpoint not in self._pending:
            return  # seen twice before this ran: mempool, then block
        if elements[2] == RSA_PAIR_PLACEHOLDER:
            # The refund branch, which only our own key opens.
            self._pending.pop(settlement.offer.outpoint, None)
            self.refunds_taken += 1
            self.tracker.fail(exchange_id, "gateway never claimed; refunded")
            return
        try:
            ephemeral_key = rsa.RSAPrivateKey.from_bytes(elements[2])
        except rsa.RSAError:
            return
        self.tracker.reach(exchange_id, "claim_seen")
        self._pending.pop(settlement.offer.outpoint, None)

        yield self.sim.timeout(self.cost_model.sample(
            self.cost_model.recipient_unwrap, self.rng,
        ))
        try:
            plaintext = open_message(
                settlement.message.encrypted_message,
                self.registry.key_for(settlement.message.node_id),
                ephemeral_key,
            )
        except ProtocolError as exc:
            self.tracker.fail(exchange_id, f"decryption failed: {exc}")
            return
        self.messages_decrypted += 1
        self.tracker.reach(exchange_id, "decrypted", decrypted=plaintext)

    # -- refunds ----------------------------------------------------------------------

    def _on_tip(self, height: int) -> None:
        """A block connected: sweep if some refund may now go out."""
        if any(self._due(height)):
            self.reclaim_expired()

    def _due(self, height: int):
        """Pending offers whose refund may go out at ``height``."""
        return (settlement for settlement in self._pending.values()
                if not settlement.refund_sent
                and settlement.offer.refund_locktime <= height)

    def reclaim_expired(self):
        """Spend the refund branch of every expired, unclaimed offer.

        Returns the process; its value is the number of refunds broadcast.
        Each is counted in ``refunds_taken`` (and its exchange failed)
        once the refund itself is seen spending the escrow.  A refund in
        flight is not sent again; one that did not go out is, next block.
        """
        return self.sim.process(self._reclaim())

    def _reclaim(self):
        sent = 0
        for settlement in list(self._due(self.ledger.height)):
            settlement.refund_sent = True
            if (yield from self.ledger.refund(settlement.offer)):
                sent += 1
            else:
                settlement.refund_sent = False
        return sent

    def stats(self) -> StatsView:
        return StatsView({**super().stats(), **self.ledger.stats()})
