"""One recipient state machine, two ledger accesses.

The same scripted deliveries — and a cross-region ``ClaimMessage`` —
go through :class:`RecipientAgent` over a co-located full node
(:class:`NodeLedger`) and over an SPV host (:class:`SpvLedger`); refusal
reasons, tracker outcomes and the agent's counters must not depend on
which one it is.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig
from repro.core.costmodel import CostModel
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.recipient import SpvLedger
from repro.core.rewards import RecipientBudget
from repro.lora.channel import Position
from repro.lora.device import LoRaRadio
from repro.p2p.message import ClaimMessage, DeliveryMessage, TxMessage
from repro.p2p.network import FaultDecision
from repro.script.builder import RSA_PAIR_PLACEHOLDER

from tests.core.test_agents_edge_cases import Harness
from tests.oracles.exchanges import record_of
from tests.oracles.fees import paying_fee

DEVICE_CLASSES = ["full", "light"]
FUNDING = 50 * 500  # what the harness bootstraps the recipient's key with


@pytest.fixture(params=DEVICE_CLASSES)
def harness(request):
    harness = Harness(device_class=request.param)
    harness.mine_every(5.0)
    # An SPV host first syncs headers and the proofs of its funding coins.
    harness.sim.run(until=3.0)
    assert harness.recipient.stats()["balance"] == FUNDING
    return harness


def run_exchange(harness, duration: float = 30.0):
    harness.sensor.start_exchange(b"reading-1")
    harness.sim.run(until=harness.sim.now + duration)
    return record_of(harness.tracker, 1)


def refused(harness, record, reason: str, received: int = 1) -> None:
    """The exchange failed for ``reason`` and no money was locked."""
    recipient = harness.recipient
    assert record.status == "failed"
    assert reason in record.failure_reason
    assert recipient.messages_received == received
    assert recipient.payments_made == 0
    assert recipient.messages_decrypted == 0
    assert recipient.stats()["pending_settlements"] == 0
    assert recipient.stats()["balance"] == FUNDING


def test_happy_path(harness):
    record = run_exchange(harness)
    recipient = harness.recipient
    assert record.completed
    assert record.decrypted == b"reading-1"
    assert record.recipient == recipient.name
    assert (recipient.messages_received, recipient.payments_made,
            recipient.messages_decrypted, recipient.refunds_taken) == (1, 1, 1, 0)
    assert recipient.stats()["pending_settlements"] == 0
    assert harness.gateway.claims_made == 1
    # Offer and claim confirmed: exactly the price left the wallet.
    assert recipient.stats()["balance"] == FUNDING - 100


def test_unknown_device(harness):
    credentials = provision_device(
        "dev-rogue", harness.recipient.address, RecipientRegistry(),
        rng=random.Random(1),
    )
    radio = LoRaRadio("dev-rogue", harness.channel,
                      position=Position(-300, 0))
    rogue = NodeAgent(harness.sim, credentials, radio,
                      CostModel(jitter_sigma=0.0), harness.tracker,
                      random.Random(2))
    rogue.start_exchange(b"sneaky")
    harness.sim.run(until=harness.sim.now + 30.0)
    refused(harness, record_of(harness.tracker, 1), "unknown device")


def test_bad_signature(harness):
    harness.wan.register("forger", lambda envelope: None)
    record = harness.tracker.new_exchange("dev-x", b"x")
    harness.wan.send("forger", harness.recipient.name, DeliveryMessage(
        delivery_id=record.exchange_id,
        encrypted_message=b"\x11" * 64,
        ephemeral_pubkey=b"\x22" * 70,
        signature=b"\x33" * 64,
        node_id="dev-x",
        gateway_pubkey_hash=b"\x44" * 20,
        price=100,
    ))
    harness.sim.run(until=harness.sim.now + 5.0)
    refused(harness, record, "bad signature")


def test_quote_above_budget(harness):
    harness.recipient.budget = RecipientBudget(max_price=50)
    record = run_exchange(harness)
    refused(harness, record, "quote 100 above budget 50")
    assert harness.recipient.quotes_refused == 1


def test_wallet_that_cannot_fund_the_offer(harness):
    # Every coin is reserved by a spend that was never broadcast.
    wallet = harness.recipient.ledger.wallet
    with paying_fee(wallet, wallet.balance):
        hoard = wallet.create_announcement(b"hoard")
    record = run_exchange(harness, duration=40.0)
    wallet.release_pending(hoard)
    refused(harness, record, "cannot fund offer")
    # Only an SPV host waits for proofs that might still be in flight.
    assert harness.recipient.stats().get("funding_stalls", 8) == 8


def record_sweeps(recipient) -> list:
    """Record every refund sweep the recipient starts: ``(height,
    refunds_taken, process)`` at the instant it starts."""
    sweeps: list = []
    start = recipient.reclaim_expired

    def recorded():
        process = start()
        sweeps.append((recipient.ledger.height, recipient.refunds_taken,
                       process))
        return process

    recipient.reclaim_expired = recorded
    return sweeps


def run_to_height(harness, height: int) -> None:
    """Step the simulation until the recipient's chain clock reads
    ``height``."""
    while harness.recipient.ledger.height < height:
        harness.sim.run(until=harness.sim.now + 0.5)


def test_gateway_that_never_claims_is_refunded_after_expiry(harness):
    harness.gateway._begin_claim = lambda offer_txid: None
    recipient = harness.recipient
    sweeps = record_sweeps(recipient)
    record = run_exchange(harness, duration=5.0)
    assert recipient.payments_made == 1
    assert recipient.stats()["pending_settlements"] == 1
    assert record.status == "pending"
    (settlement,) = recipient._pending.values()
    locktime = settlement.offer.refund_locktime
    # A full host's refund now takes longer to build than a block takes
    # to come, so blocks connect while it is in flight.
    harness.daemon.cost_model = replace(harness.daemon.cost_model,
                                        daemon_rpc=12.0)

    # The blocks below the lock-time start no sweep.
    run_to_height(harness, locktime - 1)
    harness.sim.run(until=harness.sim.now + 1.0)
    assert sweeps == [] and recipient.refunds_taken == 0
    assert recipient.stats()["pending_settlements"] == 1

    # The block that reaches it does, with nothing booked yet...
    run_to_height(harness, locktime + 3)
    harness.sim.run(until=harness.sim.now + 15.0)
    assert [(height, booked) for height, booked, _ in sweeps] == [
        (locktime, 0)]
    # ...one refund goes out, however many blocks connect after it...
    assert [process.value for _, _, process in sweeps] == [1]
    # ...and is booked once the refund itself is seen spending the escrow.
    assert recipient.refunds_taken == 1
    assert recipient.stats()["pending_settlements"] == 0
    assert record.status == "failed"
    assert "refunded" in record.failure_reason
    assert recipient.messages_decrypted == 0
    assert recipient.stats()["balance"] == FUNDING


def test_a_claim_seen_in_the_mempool_and_in_its_block_at_once_decrypts_once():
    """The mempool sighting and the block sighting of one claim land in
    the same instant, before either decryption ran: one decrypts."""
    harness = Harness()
    harness.sim.run(until=3.0)
    gateway = harness.gateway
    held: list[bytes] = []
    gateway._begin_claim = held.append
    record = run_exchange(harness, duration=5.0)
    assert record.status == "pending" and len(held) == 1
    pending = gateway._ephemeral[record.exchange_id]
    offer = gateway._audit_offer(harness.node.mempool.get(held[0]), pending)
    claim = gateway.wallet.claim_key_release(
        offer, pending.ephemeral_key.to_bytes())

    assert harness.daemon.gossip.broadcast_transaction(claim)
    block = harness.miner.mine_and_connect(harness.sim.now)
    assert claim in block.transactions
    harness.sim.run(until=harness.sim.now + 5.0)

    recipient = harness.recipient
    assert record.completed and record.decrypted == b"reading-1"
    assert recipient.messages_decrypted == 1
    assert recipient.stats()["pending_settlements"] == 0


def test_a_relayed_cross_region_claim_settles(harness):
    """A gateway following another sub-chain cannot reach the escrow's
    chain: it sends its signed claim back as a ``ClaimMessage``, and the
    recipient submits it on its own chain — to its mempool, or to its
    serving peer — where the spend watch decrypts as usual."""
    gateway = harness.gateway
    held: list[bytes] = []
    gateway._begin_claim = held.append
    record = run_exchange(harness, duration=5.0)
    assert record.status == "pending" and len(held) == 1
    pending = gateway._ephemeral[record.exchange_id]
    found = harness.node.chain.find_transaction(held[0])
    offer_tx = found[0] if found else harness.node.mempool.get(held[0])
    offer = gateway._audit_offer(offer_tx, pending)
    claim = gateway.wallet.claim_key_release(
        offer, pending.ephemeral_key.to_bytes())

    harness.wan.register("foreign-gateway", lambda envelope: None)
    harness.wan.send("foreign-gateway", harness.recipient.name, ClaimMessage(
        delivery_id=record.exchange_id, claim_tx_bytes=claim.serialize()))
    harness.sim.run(until=harness.sim.now + 20.0)

    recipient = harness.recipient
    assert record.completed and record.decrypted == b"reading-1"
    assert recipient.claims_relayed == 1
    assert recipient.stats()["pending_settlements"] == 0
    assert recipient.stats()["balance"] == FUNDING - 100


def test_an_undecodable_claim_fails_its_exchange(harness):
    harness.gateway._begin_claim = lambda offer_txid: None
    record = run_exchange(harness, duration=5.0)
    harness.wan.register("foreign-gateway", lambda envelope: None)
    harness.wan.send("foreign-gateway", harness.recipient.name, ClaimMessage(
        delivery_id=record.exchange_id, claim_tx_bytes=b"\x00garbage"))
    harness.sim.run(until=harness.sim.now + 5.0)
    assert record.status == "failed"
    assert record.failure_reason == "undecodable cross-region claim"
    assert harness.recipient.claims_relayed == 0


def at_clock(recipient, listener) -> None:
    """Call ``listener(height)`` on each tick of the recipient's chain
    clock, after the recipient's own sweep check."""
    ledger = recipient.ledger
    if isinstance(ledger, SpvLedger):
        ledger.spv.on_tip.append(listener)
    else:
        ledger.daemon.node.chain.add_connect_listener(
            lambda block, height: listener(height))


@pytest.mark.parametrize("device_class", DEVICE_CLASSES)
def test_refund_racing_a_late_claim_still_decrypts(device_class):
    """The refund loses the conflict and the claim decrypts as usual.

    Gateway 0 holds each claim until the block that reaches its offer's
    lock-time, then releases it: the victim's sweep for that offer starts
    at the same block.  The victim's side of the race is slow — its
    daemon takes a second to build a refund, or its uplink a second to
    carry one — so the claim reaches the full nodes first and the refund
    is refused there.  The settlement must stay pending until a spend of
    the escrow is *seen*: paid, delivered, and never booked as refunded.
    """
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=62, chain=ChainParams(locktime_grace=4, block_interval=5.0),
        light=LightConfig(device_class=device_class, light_sync_interval=5.0),
    ))
    gateway = network.sites[0].gateway
    victim = network.sites[1].recipient  # pays gateway 0
    if device_class == "full":
        daemon = victim.ledger.daemon
        daemon.cost_model = replace(daemon.cost_model, daemon_rpc=1.0)
    else:
        network.wan.interceptor = lambda envelope: (
            FaultDecision(extra_delay=1.0)
            if envelope.source == victim.name
            and isinstance(envelope.payload, TxMessage) else None)
    held: list[bytes] = []
    release = gateway._begin_claim
    gateway._begin_claim = held.append
    sweeps = record_sweeps(victim)

    def release_expired(height: int) -> None:
        locktimes = {settlement.offer.transaction.txid:
                     settlement.offer.refund_locktime
                     for settlement in victim._pending.values()}
        for offer_txid in list(held):
            if locktimes.get(offer_txid, height + 1) <= height:
                held.remove(offer_txid)
                release(offer_txid)

    at_clock(victim, release_expired)
    network.run(num_exchanges=8, max_duration=90.0)
    network.sim.run(until=network.sim.now + 120.0)

    assert held == [] and sweeps
    refunds_sent = sum(process.value for _, _, process in sweeps)
    # A light host cannot see the claim coming: its refunds did go out,
    # but once a filter push shows the claim spending an escrow, the lost
    # refund is not resent.
    assert refunds_sent == (4 if device_class == "light" else 0)
    if device_class == "light":
        assert victim.stats()["rebroadcasts"] == 0
    assert victim.payments_made == 4
    assert victim.messages_decrypted == 4
    assert victim.refunds_taken == 0
    assert victim.stats()["pending_settlements"] == 0
    assert gateway.rewards_claimed == 400
    paid_for = [r for r in network.tracker.records()
                if r.recipient == victim.name and r.t_offer_sent is not None]
    assert len(paid_for) == 4 and all(r.completed for r in paid_for)


def test_a_withholding_gateways_payer_is_refunded_by_default():
    """A default deployment, lock-time shortened so it passes in a short
    run: the payer of a gateway that never claims gets every offer back,
    with no sweep to switch on."""
    network = BcWANNetwork(NetworkConfig(
        seed=64, chain=ChainParams(locktime_grace=4)))
    gateway = network.sites[0].gateway
    held: list[bytes] = []
    gateway._begin_claim = held.append
    network.run(num_exchanges=15, max_duration=120.0)
    network.sim.run(until=network.sim.now + 120.0)

    withheld = [r for r in network.tracker.records()
                if r.gateway == gateway.name and r.t_offer_sent is not None]
    assert held and len(withheld) == len(held)
    assert all(r.status == "failed" and "refunded" in r.failure_reason
               for r in withheld)
    payers = {r.recipient for r in withheld}
    refunded = sum(site.recipient.refunds_taken for site in network.sites
                   if site.recipient.name in payers)
    assert refunded == len(held)
    assert all(site.recipient.stats()["pending_settlements"] == 0
               for site in network.sites if site.recipient.name in payers)


def test_a_claim_first_seen_in_a_block_decrypts():
    """The recipient's daemon never admits the claim to its mempool (every
    transaction gossiped to it is lost): it meets the claim only in the
    block that confirms it, and decrypts there."""
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=62, chain=ChainParams(block_interval=5.0)))
    victim = network.sites[1].recipient  # pays gateway 0
    lost: list[TxMessage] = []

    def lose_gossip(envelope):
        if (envelope.destination == victim.name
                and isinstance(envelope.payload, TxMessage)):
            lost.append(envelope.payload)
            return FaultDecision(drop=True)
        return None

    network.wan.interceptor = lose_gossip
    network.run(num_exchanges=8, max_duration=90.0)
    network.sim.run(until=network.sim.now + 30.0)

    escrows = {settlement.offer.outpoint
               for settlement in victim._pending.values()}
    assert not escrows
    assert any(tx_input.script_sig.elements[-1] != RSA_PAIR_PLACEHOLDER
               for message in lost for tx_input in message.transaction.inputs
               if len(tx_input.script_sig.elements) == 3)
    assert victim.payments_made > 0
    assert victim.messages_decrypted == victim.payments_made
    assert victim.refunds_taken == 0
    paid_for = [r for r in network.tracker.records()
                if r.recipient == victim.name and r.t_offer_sent is not None]
    assert len(paid_for) == victim.payments_made
    assert all(r.completed for r in paid_for)
