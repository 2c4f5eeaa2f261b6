"""The daemon queue (with the Multichain stall) and the cost model."""

from __future__ import annotations

import random

import pytest

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.p2p.message import BlockMessage, TxMessage
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


# -- cost model ----------------------------------------------------------------

def test_zero_sigma_is_deterministic():
    model = CostModel(jitter_sigma=0.0)
    assert model.sample(0.1, random.Random(1)) == 0.1


def test_sample_mean_approximation():
    model = CostModel(jitter_sigma=0.3)
    rng = random.Random(0)
    samples = [model.sample(0.1, rng) for _ in range(5000)]
    assert sum(samples) / len(samples) == pytest.approx(0.1, rel=0.05)


def test_sample_zero_mean():
    assert CostModel().sample(0.0, random.Random(1)) == 0.0


def test_negative_cost_rejected():
    with pytest.raises(ConfigurationError):
        CostModel(daemon_rpc=-1.0)
    with pytest.raises(ConfigurationError):
        CostModel(jitter_sigma=-0.1)


# -- daemon --------------------------------------------------------------------

def make_daemon(verify_blocks=False, cost_model=None,
                params=None):
    sim = Simulator()
    rngs = RngRegistry(0)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=0.01))
    params = params or ChainParams(
        coinbase_maturity=1, verification_stall_base=2.0,
        verification_stall_per_tx=0.1,
    )
    node = FullNode(params, "d")
    daemon = BlockchainDaemon(
        sim, "d", wan, node,
        cost_model or CostModel(jitter_sigma=0.0),
        rngs.stream("daemon"), verify_blocks=verify_blocks,
    )
    return sim, wan, node, daemon


def test_rpc_returns_function_result():
    sim, _wan, _node, daemon = make_daemon()
    results = []

    def flow():
        value = yield daemon.rpc(lambda: 40 + 2)
        results.append((sim.now, value))

    sim.process(flow())
    sim.run()
    assert results == [(CostModel(jitter_sigma=0.0).daemon_rpc, 42)]


def test_fifo_ordering():
    sim, _wan, _node, daemon = make_daemon()
    order = []
    for i in range(3):
        daemon.call(0.1, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2]


def test_stall_delays_rpc():
    """An RPC issued while a block verifies waits out the stall."""
    sim, wan, node, daemon = make_daemon(verify_blocks=True)
    miner_wallet = Wallet(node.chain, KeyPair.generate(random.Random(1)))
    miner = Miner(chain=FullNode(node.params, "m").chain,
                  mempool=FullNode(node.params, "m2").mempool,
                  reward_pubkey_hash=miner_wallet.pubkey_hash)
    block = miner.mine(1.0)

    wan.register("remote", lambda env: None)
    wan.send("remote", "d", BlockMessage(block=block))
    times = []

    def flow():
        yield sim.timeout(0.02)  # block arrives at 0.01, stall begins
        yield daemon.rpc(lambda: None)
        times.append(sim.now)

    sim.process(flow())
    sim.run()
    # Stall = 2.0 + 0.1 * 1 tx = 2.1 from t=0.01; rpc ends ~2.11 + 0.12.
    assert times[0] > 2.0
    assert daemon.stats.blocks_verified == 1
    assert daemon.stats.stall_time == pytest.approx(2.1)


def test_no_stall_without_verification():
    sim, wan, node, daemon = make_daemon(verify_blocks=False)
    miner_wallet = Wallet(node.chain, KeyPair.generate(random.Random(1)))
    helper = FullNode(node.params, "m")
    miner = Miner(chain=helper.chain, mempool=helper.mempool,
                  reward_pubkey_hash=miner_wallet.pubkey_hash)
    block = miner.mine(1.0)
    wan.register("remote", lambda env: None)
    wan.send("remote", "d", BlockMessage(block=block))
    times = []

    def flow():
        yield sim.timeout(0.02)
        yield daemon.rpc(lambda: None)
        times.append(sim.now)

    sim.process(flow())
    sim.run()
    assert times[0] < 0.5
    assert daemon.stats.blocks_verified == 0
    assert node.chain.height == 1  # block still connected


def test_duplicate_blocks_not_reverified():
    sim, wan, node, daemon = make_daemon(verify_blocks=True)
    helper = FullNode(node.params, "m")
    miner = Miner(chain=helper.chain, mempool=helper.mempool,
                  reward_pubkey_hash=b"\x01" * 20)
    block = miner.mine(1.0)
    wan.register("r1", lambda env: None)
    wan.register("r2", lambda env: None)
    wan.send("r1", "d", BlockMessage(block=block))
    wan.send("r2", "d", BlockMessage(block=block))
    sim.run()
    assert daemon.stats.blocks_verified == 1


def test_duplicate_txs_processed_once(funded_chain):
    node_src, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(random.Random(5)).pubkey_hash,
                               100)
    sim, wan, node, daemon = make_daemon()
    # Replay the source chain into the daemon's node.
    for _h, block in node_src.chain.iter_active_blocks(1):
        node.submit_block(block)
    wan.register("r", lambda env: None)
    wan.send("r", "d", TxMessage(transaction=tx))
    wan.send("r", "d", TxMessage(transaction=tx))
    sim.run()
    jobs_tx = daemon.stats.jobs_served
    assert tx.txid in node.mempool
    assert jobs_tx == 1


def test_protocol_handler_dispatch():
    sim, wan, _node, daemon = make_daemon()

    class Ping:
        pass

    seen = []
    daemon.register_protocol(Ping, lambda env: seen.append(env.source))
    wan.register("r", lambda env: None)
    wan.send("r", "d", Ping())
    sim.run()
    assert seen == ["r"]


def test_unknown_payload_ignored():
    sim, wan, _node, daemon = make_daemon()
    wan.register("r", lambda env: None)
    wan.send("r", "d", object())
    sim.run()
    assert daemon.stats.jobs_served == 0


def test_stats_track_waits():
    sim, _wan, _node, daemon = make_daemon()
    daemon.call(0.5, lambda: None)
    daemon.call(0.5, lambda: None)  # waits 0.5 behind the first
    sim.run()
    assert daemon.stats.jobs_served == 2
    assert daemon.stats.mean_wait() == pytest.approx(0.25)
    assert daemon.stats.max_queue_length == 2
