"""One recipient state machine, two ledger accesses.

The same scripted deliveries — and a cross-region ``ClaimMessage`` —
go through :class:`RecipientAgent` over a co-located full node
(:class:`NodeLedger`) and over an SPV host (:class:`SpvLedger`); refusal
reasons, tracker outcomes and the agent's counters must not depend on
which one it is.
"""

from __future__ import annotations

import random

import pytest

from repro.blockchain import ChainParams
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig
from repro.core.costmodel import CostModel
from repro.core.gateway_agent import CLAIM_FEE
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.rewards import RecipientBudget
from repro.lora.channel import Position
from repro.lora.device import LoRaRadio
from repro.p2p.message import ClaimMessage, DeliveryMessage

from tests.core.test_agents_edge_cases import Harness

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
    return harness.tracker.get(1)


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
    refused(harness, harness.tracker.get(1), "unknown device")


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
    hoard = wallet.create_announcement(b"hoard", fee=wallet.balance)
    record = run_exchange(harness, duration=40.0)
    wallet.release_pending(hoard)
    refused(harness, record, "cannot fund offer")
    # Only an SPV host waits for proofs that might still be in flight.
    assert harness.recipient.stats().get("funding_stalls", 8) == 8


def test_gateway_that_never_claims_is_refunded_after_expiry(harness):
    harness.gateway._begin_claim = lambda offer_txid: None
    record = run_exchange(harness, duration=5.0)
    recipient = harness.recipient
    assert recipient.payments_made == 1
    assert recipient.stats()["pending_settlements"] == 1
    assert record.status == "pending"

    # Before the locktime a sweep leaves the escrow alone.
    early = recipient.reclaim_expired()
    harness.sim.run(until=harness.sim.now + 1.0)
    assert early.value == 0 and recipient.refunds_taken == 0

    harness.sim.run(until=harness.sim.now + 25.0)  # 3 blocks of grace pass
    first, second = recipient.reclaim_expired(), recipient.reclaim_expired()
    harness.sim.run(until=harness.sim.now + 15.0)
    # One refund goes out, however often the sweep runs meanwhile...
    assert (first.value, second.value) == (1, 0)
    # ...and is booked once the refund itself is seen spending the escrow.
    assert recipient.refunds_taken == 1
    assert recipient.stats()["pending_settlements"] == 0
    assert record.status == "failed"
    assert "refunded" in record.failure_reason
    assert recipient.messages_decrypted == 0
    assert recipient.stats()["balance"] == FUNDING


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
        offer, pending.ephemeral_key.to_bytes(), fee=CLAIM_FEE)

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


@pytest.mark.parametrize("device_class", DEVICE_CLASSES)
def test_refund_racing_a_late_claim_still_decrypts(device_class):
    """The refund loses the conflict and the claim decrypts as usual.

    Gateway 0 holds its claims until the offers have expired, then
    releases them; the victim sweeps at the very instant each claim
    enters its serving node's mempool — the claim's push is in flight,
    so an SPV host still believes the escrow unspent and sends a refund
    the full nodes then reject.  The settlement must stay pending until a
    spend of the escrow is *seen*: paid, delivered, and never booked as
    refunded.
    """
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=15.0,
        seed=62, chain=ChainParams(locktime_grace=4, block_interval=5.0),
        light=LightConfig(device_class=device_class, light_sync_interval=5.0),
    ))
    gateway = network.sites[0].gateway
    victim = network.sites[1].recipient  # pays gateway 0
    held: list[bytes] = []
    release = gateway._begin_claim
    gateway._begin_claim = held.append
    network.run(num_exchanges=8, max_duration=90.0)
    assert len(held) == victim.stats()["pending_settlements"] == 4
    network.sim.run(until=network.sim.now + 40.0)  # the offers expire

    escrows = set(victim._pending)
    sweeps = []

    def sweep_on_claim(tx) -> None:
        if any(tx_input.outpoint in escrows for tx_input in tx.inputs):
            sweeps.append(victim.reclaim_expired())

    network.sites[1].daemon.gossip.on_transaction.append(sweep_on_claim)
    for offer_txid in held:
        release(offer_txid)
    network.sim.run(until=network.sim.now + 120.0)

    assert len(sweeps) == 4
    if device_class == "light":
        assert sum(sweep.value for sweep in sweeps) == 4  # refunds did go out
    assert victim.payments_made == 4
    assert victim.messages_decrypted == 4
    assert victim.refunds_taken == 0
    assert victim.stats()["pending_settlements"] == 0
    assert gateway.rewards_claimed == 400
    paid_for = [r for r in network.tracker.records()
                if r.recipient == victim.name and r.t_offer_sent is not None]
    assert len(paid_for) == 4 and all(r.completed for r in paid_for)
