"""Direct agent-level edge cases, outside the full network assembly.

A minimal harness (one site's stack + one sensor, no roaming ring) lets
these tests poke protocol corners that integration runs rarely hit:
unknown devices, bogus acks, lost ephemeral state, refused offers.
``tests/core/test_recipient_ledgers.py`` drives the same harness over
both of the recipient's ledger accesses.
"""

from __future__ import annotations

import random

import pytest

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import DirectoryView, build_announcement_payload
from repro.core.gateway_agent import GatewayAgent
from repro.obs.exchange import ExchangeTracker
from repro.obs.tracing import Tracer
from repro.core.node_agent import NodeAgent
from repro.core.provisioning import RecipientRegistry, provision_device
from repro.core.recipient import NodeLedger, RecipientAgent, SpvLedger
from repro.crypto.keys import KeyPair
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.light.wallet import LightWallet
from repro.lora.channel import Position, RadioChannel
from repro.lora.device import EU868_DOWNLINK_CHANNEL, LoRaRadio
from repro.lora.frames import DataFrame, KeyRequestFrame
from repro.p2p.message import DeliveryAck, DeliveryMessage
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


class Harness:
    """One gateway site + one provisioned sensor, fully wired.

    The recipient holds its own key on either ledger access: over the
    site's full node (``device_class="full"``), or as the SPV host
    ``"light"`` that the site's node serves (``"light"``).
    """

    def __init__(self, seed: int = 7, device_class: str = "full") -> None:
        self.rngs = RngRegistry(seed)
        self.sim = Simulator()
        self.tracker = ExchangeTracker(Tracer(self.sim, enabled=False))
        cost = CostModel(jitter_sigma=0.0)
        params = ChainParams(coinbase_maturity=1, locktime_grace=3)
        endpoint = "site" if device_class == "full" else "light"

        # Bootstrap a funded chain directly.
        boot = FullNode(params, "boot")
        actor_key = KeyPair.generate(self.rngs.stream("actor"))
        recipient_key = KeyPair.generate(self.rngs.stream("recipient"))
        boot_wallet = Wallet(boot.chain, KeyPair.generate(self.rngs.stream("m")))
        boot_wallet.watch_chain()
        miner = Miner(chain=boot.chain, mempool=boot.mempool,
                      reward_pubkey_hash=boot_wallet.pubkey_hash)
        for i in range(4):
            miner.mine_and_connect(0.0)
        for key in (actor_key, recipient_key):
            funding = boot_wallet.create_fanout(key.pubkey_hash, 500, 50)
            assert boot.submit_transaction(funding).accepted
        miner.mine_and_connect(0.0)
        scratch = Wallet(boot.chain, recipient_key)
        scratch.refresh_from_utxo_set()
        announcement = scratch.create_announcement(
            build_announcement_payload(recipient_key, endpoint))
        assert boot.submit_transaction(announcement).accepted
        miner.mine_and_connect(0.0)

        self.wan = WANetwork(self.sim, self.rngs.stream("wan"),
                             latency=ConstantLatency(delay=0.01))
        node = FullNode(params, "site")
        for _h, block in boot.chain.iter_active_blocks(1):
            node.submit_block(block)
        self.node = node
        self.miner = Miner(chain=node.chain, mempool=node.mempool,
                           reward_pubkey_hash=boot_wallet.pubkey_hash)
        self.daemon = BlockchainDaemon(
            self.sim, "site", self.wan, node, cost,
            self.rngs.stream("daemon"), verify_blocks=False,
        )
        self.wallet = Wallet(node.chain, actor_key)
        self.wallet.watch_chain()
        self.directory = DirectoryView(node.chain)
        self.directory.follow()

        self.channel = RadioChannel(self.sim, self.rngs.stream("radio"))
        gateway_radio = LoRaRadio(
            "gw", self.channel, position=Position(0, 0),
            frequencies=(EU868_DOWNLINK_CHANNEL,), duty_cycle=0.10,
            power_dbm=27.0,
        )
        self.gateway = GatewayAgent(
            self.sim, "site", gateway_radio, self.daemon, self.wallet,
            self.directory, self.wan, cost, self.tracker,
            self.rngs.stream("gw"), price=100,
        )
        self.registry = RecipientRegistry()
        if device_class == "full":
            recipient_wallet = Wallet(node.chain, recipient_key)
            recipient_wallet.watch_chain()
            ledger = NodeLedger(self.daemon, recipient_wallet)
        else:
            LightServer(self.daemon)
            spv = SpvClient(self.sim, self.wan, endpoint, ("site",),
                            sync_interval=2.0)
            ledger = SpvLedger(spv, LightWallet(recipient_key),
                               refund_delta=params.locktime_grace)
        self.recipient = RecipientAgent(
            self.sim, endpoint, ledger, self.registry, self.wan, cost,
            self.tracker, self.rngs.stream("rcpt"),
        )
        credentials = provision_device(
            "dev-x", self.recipient.address, self.registry,
            rng=self.rngs.stream("prov"),
        )
        sensor_radio = LoRaRadio("dev-x", self.channel,
                                 position=Position(400, 0))
        self.sensor = NodeAgent(
            self.sim, credentials, sensor_radio, cost, self.tracker,
            self.rngs.stream("node"),
        )
        self.sensor.KEY_RESPONSE_TIMEOUT = 8.0

    def mine_every(self, interval: float) -> None:
        """The site's node mines (and serves) a block every ``interval``."""
        def loop():
            while True:
                yield self.sim.timeout(interval)
                self.miner.mine_and_connect(self.sim.now)
        self.sim.process(loop())


@pytest.fixture
def harness():
    return Harness()


def test_single_exchange_settles(harness):
    process = harness.sensor.start_exchange(b"reading-1")
    harness.sim.run(until=30.0)
    record = harness.tracker.get(1)
    assert record.completed
    assert record.decrypted == b"reading-1"
    assert harness.gateway.claims_made == 1


def test_unknown_device_refused(harness):
    """A sensor the recipient never provisioned gets a nack."""
    rogue_credentials = provision_device(
        "dev-rogue", harness.recipient.address, RecipientRegistry(),
        rng=random.Random(1),
    )
    rogue_radio = LoRaRadio("dev-rogue", harness.channel,
                            position=Position(-300, 0))
    rogue = NodeAgent(harness.sim, rogue_credentials, rogue_radio,
                      CostModel(jitter_sigma=0.0), harness.tracker,
                      random.Random(2))
    rogue.start_exchange(b"sneaky")
    harness.sim.run(until=30.0)
    record = harness.tracker.get(1)
    assert record.status == "failed"
    assert "unknown device" in record.failure_reason
    assert harness.recipient.payments_made == 0


def test_data_frame_without_key_request_fails(harness):
    """A DataFrame with no prior ephemeral state cannot be forwarded."""
    record = harness.tracker.new_exchange("dev-x", b"x")
    frame = DataFrame(sender="dev-x", encrypted_message=b"\x00" * 64,
                      signature=b"\x00" * 64,
                      recipient_address=harness.recipient.address,
                      nonce=record.exchange_id)
    harness.sim.process(harness.sensor.radio.send(frame))
    harness.sim.run(until=10.0)
    assert record.status == "failed"
    assert "ephemeral key state" in record.failure_reason


def test_unknown_recipient_address_fails(harness):
    """@R not in the directory: the gateway cannot route (section 4.3)."""
    credentials = provision_device(
        "dev-lost", "B" + "1" * 30, harness.registry,
        rng=random.Random(3),
    )
    radio = LoRaRadio("dev-lost", harness.channel, position=Position(0, 300))
    lost = NodeAgent(harness.sim, credentials, radio,
                     CostModel(jitter_sigma=0.0), harness.tracker,
                     random.Random(4))
    lost.start_exchange(b"where")
    harness.sim.run(until=30.0)
    record = harness.tracker.get(1)
    assert record.status == "failed"
    assert "no directory entry" in record.failure_reason


def test_lost_key_request_keeps_the_launch_instant(harness):
    """The gateway never hears the first key request; the node retries
    after its timeout, and the record's ``t_request`` stays the instant
    the exchange was launched, as in both baselines."""
    serve, lost = harness.gateway._serve_key_request, []

    def lossy(frame):
        if not lost:
            lost.append(frame)
            return
        yield from serve(frame)
    harness.gateway._serve_key_request = lossy
    harness.sim.call_at(5.0, lambda: harness.sensor.start_exchange(b"late"))
    harness.sim.run(until=60.0)
    record = harness.tracker.get(1)
    assert len(lost) == 1 and record.completed
    assert record.t_request == 5.0
    assert record.t_keygen_done > 5.0 + harness.sensor.KEY_RESPONSE_TIMEOUT


def test_bogus_ack_is_ignored(harness):
    """An ack for an unknown delivery id must not crash or claim."""
    harness.wan.register("stranger", lambda env: None)
    harness.wan.send("stranger", "site", DeliveryAck(
        delivery_id=424242, accepted=True, offer_txid=b"\x01" * 32,
    ))
    harness.sim.run(until=5.0)
    assert harness.gateway.claims_made == 0


def test_duplicate_key_request_reuses_ephemeral(harness):
    """Retries must not mint a second key pair for the same exchange."""
    record = harness.tracker.new_exchange("dev-x", b"x")
    for _ in range(2):
        harness.sim.process(harness.sensor.radio.send(
            KeyRequestFrame(sender="dev-x", nonce=record.exchange_id)))
        harness.sim.run(until=harness.sim.now + 5.0)
    pending = harness.gateway._ephemeral.get(record.exchange_id)
    assert pending is not None
    # Exactly one pending entry; both downlinks carried the same key.
    assert harness.tracker.get(record.exchange_id) is record


def test_delivery_with_wrong_signature_refused(harness):
    """A forged DeliveryMessage (bad Sig) is rejected at step 8."""
    harness.wan.register("forger", lambda env: None)
    record = harness.tracker.new_exchange("dev-x", b"x")
    harness.wan.send("forger", "site", DeliveryMessage(
        delivery_id=record.exchange_id,
        encrypted_message=b"\x11" * 64,
        ephemeral_pubkey=b"\x22" * 70,
        signature=b"\x33" * 64,
        node_id="dev-x",
        gateway_pubkey_hash=b"\x44" * 20,
        price=100,
    ))
    harness.sim.run(until=5.0)
    assert record.status == "failed"
    assert "bad signature" in record.failure_reason
    assert harness.recipient.payments_made == 0


def test_gateway_audit_rejects_underpaying_offer(harness):
    """An offer below the quoted price never triggers a key release."""
    from repro.core.gateway_agent import _PendingDelivery
    from repro.crypto import rsa as rsa_mod

    ephemeral = rsa_mod.generate_keypair(512, random.Random(6))
    pending = _PendingDelivery(
        exchange_id=777, ephemeral_key=ephemeral, node_id="dev-x",
        quoted_price=100,
    )
    cheap = harness.wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(),
        harness.wallet.pubkey_hash,  # gateway == wallet here
        amount=1,  # far below the 100 quoted
    )
    assert harness.gateway._audit_offer(cheap.transaction, pending) is None
    harness.wallet.release_pending(cheap.transaction)
    # At or above the quote, the audit passes.
    fair = harness.wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), harness.wallet.pubkey_hash,
        amount=100,
    )
    offer = harness.gateway._audit_offer(fair.transaction, pending)
    assert offer is not None
    assert offer.amount == 100
