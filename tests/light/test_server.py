"""The light server: its filters across its daemon's crash and restart,
and its header service under an oversized request."""

from __future__ import annotations

import random

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.light.messages import (FilterMatchMessage, GetHeaderRangeMessage,
                                  HeaderRangeMessage, RegisterFilterMessage)
from repro.light.server import LightServer
from repro.light.spv import SpvClient
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency


def test_a_crash_forgets_every_filter():
    """A filter registered before the crash matches nothing after the
    restart: the restarted server pushes no match and serves no client."""
    sim = Simulator()
    wan = WANetwork(sim, random.Random(1), latency=ConstantLatency(delay=0.01))
    node = FullNode(ChainParams(coinbase_maturity=1), "full")
    payer = Wallet(node.chain, KeyPair.generate(random.Random(2)))
    payer.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=payer.pubkey_hash)
    for _ in range(3):
        miner.mine_and_connect(0.0)
    daemon = BlockchainDaemon(sim, "full", wan, node,
                              CostModel(jitter_sigma=0.0), random.Random(3))
    server = LightServer(daemon)
    payee = KeyPair.generate(random.Random(4))
    inbox = []
    wan.register("light", inbox.append)
    wan.send("light", "full",
             RegisterFilterMessage(pubkey_hashes=(payee.pubkey_hash,)))
    sim.run(until=1.0)
    assert server.stats()["clients"] == 1

    daemon.crash(preserve_chain=True)
    daemon.restart()
    assert server.stats()["clients"] == 0
    payment = payer.create_payment(payee.pubkey_hash, 1_000)
    assert daemon.gossip.broadcast_transaction(payment)
    sim.run(until=2.0)
    assert not [envelope for envelope in inbox
                if isinstance(envelope.payload, FilterMatchMessage)]
    assert server.stats()["clients"] == 0
    assert server.matches_pushed == 0


def test_an_oversized_header_request_reads_one_batch():
    """The client picks the limit; the server reads at most one
    ``SpvClient.BATCH`` of heights, however long the chain."""
    sim = Simulator()
    wan = WANetwork(sim, random.Random(1), latency=ConstantLatency(delay=0.01))
    node = FullNode(ChainParams(coinbase_maturity=1), "full")
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=bytes(20))
    for _ in range(SpvClient.BATCH + 10):
        miner.mine_and_connect(0.0)
    daemon = BlockchainDaemon(sim, "full", wan, node,
                              CostModel(jitter_sigma=0.0), random.Random(3))
    LightServer(daemon)
    reads = []
    block_at = node.chain.block_at

    def counted(height):
        reads.append(height)
        return block_at(height)

    node.chain.block_at = counted
    inbox = []
    wan.register("light", inbox.append)
    wan.send("light", "full", GetHeaderRangeMessage(above_height=-1,
                                                    limit=10**6))
    sim.run(until=1.0)
    assert reads == list(range(SpvClient.BATCH))
    (reply,) = [envelope.payload for envelope in inbox
                if isinstance(envelope.payload, HeaderRangeMessage)]
    assert len(reply.headers) == SpvClient.BATCH
