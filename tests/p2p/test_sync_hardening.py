"""SyncAgent hardening: timeouts, backoff, peer scoring, fork healing.

All failure injection here is surgical and deterministic: either a fixed
seed drives the sampled loss, or a custom network interceptor drops
exactly the replies under test.
"""

from __future__ import annotations

import random

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.p2p.network import FaultDecision, WANetwork
from repro.p2p.sync import (GetHeadersMessage, GetTipMessage, GetTxsMessage,
                             HeadersMessage, SyncAgent, TipMessage,
                             TxsMessage)
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


def build_mesh(n=2, seed=0, loss_rate=0.0, sync_interval=5.0,
               miner_seeds=None):
    """n daemons in a full mesh, each with its own miner wallet."""
    sim = Simulator()
    rngs = RngRegistry(seed)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=0.01),
                    loss_rate=loss_rate)
    params = ChainParams(coinbase_maturity=1)
    cost = CostModel(jitter_sigma=0.0)
    names = [f"n{i}" for i in range(n)]
    daemons = []
    for name in names:
        node = FullNode(params, name)
        daemons.append(BlockchainDaemon(sim, name, wan, node, cost,
                                        rngs.stream(f"d-{name}"),
                                        verify_blocks=False))
    for daemon in daemons:
        for peer in names:
            if peer != daemon.name:
                daemon.gossip.connect(peer)
    agents = [SyncAgent(sim, daemon, interval=sync_interval)
              for daemon in daemons]
    miners = []
    for index, daemon in enumerate(daemons):
        key_seed = (miner_seeds or {}).get(index, 1000 + index)
        wallet = Wallet(daemon.node.chain,
                        KeyPair.generate(random.Random(key_seed)))
        wallet.watch_chain()
        miners.append(Miner(chain=daemon.node.chain,
                            mempool=daemon.node.mempool,
                            reward_pubkey_hash=wallet.pubkey_hash))
    return sim, wan, daemons, agents, miners


def test_unanswered_probe_times_out_and_backs_off():
    sim, wan, daemons, agents, _miners = build_mesh(sync_interval=5.0)
    # Silence n1 entirely: every probe from n0 dies in flight.
    wan.interceptor = lambda env: (
        FaultDecision(drop=True, reason="mute")
        if env.destination == "n1" else None)
    sim.run(until=31.0)
    agent = agents[0]
    assert agent.timeouts >= 2
    score = agent.requests.scores["n1"]
    assert score.consecutive_failures >= 2
    assert score.backoff_until > sim.now  # still backing off
    # Exponential growth: repeat failures pushed the horizon beyond one
    # plain interval.
    assert score.backoff_until - sim.now > agent.interval * 0.5
    # The daemon's view reads its sync agent's counters.
    assert daemons[0].stats()["sync_timeouts"] == agent.timeouts


def test_backoff_resets_when_peer_answers_again():
    sim, wan, daemons, agents, miners = build_mesh(sync_interval=5.0)
    mute = {"on": True}
    wan.interceptor = lambda env: (
        FaultDecision(drop=True, reason="mute")
        if mute["on"] and env.destination == "n1" else None)
    sim.run(until=16.0)
    agent = agents[0]
    assert agent.requests.scores["n1"].consecutive_failures >= 1
    mute["on"] = False
    miners[0].mine_and_connect(16.0)
    sim.run(until=120.0)  # past the backoff horizon
    assert agent.requests.scores["n1"].consecutive_failures == 0
    assert agent.backoff_resets >= 1
    assert daemons[0].stats()["sync_backoff_resets"] == agent.backoff_resets
    assert daemons[1].node.height == 1  # and sync works again


def test_dropped_replies_retry_then_converge_under_seeded_loss():
    """The satellite scenario: lossy WAN, dropped replies, but sync's
    timeout + retry + backoff machinery still reaches convergence."""
    sim, _wan, daemons, agents, miners = build_mesh(
        seed=42, loss_rate=0.5, sync_interval=4.0)
    for i in range(4):
        block = miners[0].mine_and_connect(float(i))
        daemons[0].gossip.broadcast_block(block)
    sim.run(until=400.0)
    assert daemons[1].node.height == 4
    assert (daemons[1].node.chain.tip.hash
            == daemons[0].node.chain.tip.hash)
    total_timeouts = sum(agent.timeouts for agent in agents)
    assert total_timeouts > 0  # the loss actually bit


def test_seeded_loss_run_is_deterministic():
    def run_once():
        sim, _wan, daemons, agents, miners = build_mesh(
            seed=42, loss_rate=0.5, sync_interval=4.0)
        for i in range(4):
            block = miners[0].mine_and_connect(float(i))
            daemons[0].gossip.broadcast_block(block)
        sim.run(until=200.0)
        return (daemons[1].node.height,
                tuple(agent.timeouts for agent in agents),
                tuple(agent.retries for agent in agents))
    assert run_once() == run_once()


def test_catchup_retransmits_lost_headers_reply():
    sim, wan, daemons, agents, miners = build_mesh(sync_interval=5.0)
    for i in range(3):
        miners[0].mine_and_connect(float(i))
    dropped = {"count": 0}

    def drop_first_headers(env):
        if isinstance(env.payload, HeadersMessage) and dropped["count"] == 0:
            dropped["count"] += 1
            return FaultDecision(drop=True, reason="lost-headers")
        return None

    wan.interceptor = drop_first_headers
    sim.run(until=60.0)
    assert dropped["count"] == 1
    assert agents[1].retries >= 1
    assert daemons[1].node.height == 3  # session survived the loss


def test_header_first_walkback_heals_deep_fork():
    """Divergence deeper than one header window: the agent walks back
    window by window until it finds common history, then reorgs."""
    sim, _wan, daemons, agents, miners = build_mesh(
        n=2, miner_seeds={0: 111, 1: 222})
    for agent in agents:
        agent.HEADER_WINDOW = 2
        agent.HEADER_OVERLAP = 0
    # Shared history: 3 blocks mined on n0, replicated to n1 by hand.
    shared = [miners[0].mine_and_connect(float(i)) for i in range(3)]
    for block in shared:
        daemons[1].node.submit_block(block)
    assert daemons[1].node.height == 3
    # Diverge: n0 mines 3 more, n1 mines 2 of its own (different reward
    # key, so different hashes).
    for i in range(3):
        miners[0].mine_and_connect(10.0 + i)
    for i in range(2):
        miners[1].mine_and_connect(20.0 + i)
    assert daemons[0].node.height == 6
    assert daemons[1].node.height == 5
    tip_before = daemons[1].node.chain.tip.hash
    sim.run(until=60.0)
    # n1 found the fork point at height 3 and reorged onto n0's chain.
    assert daemons[1].node.height == 6
    assert daemons[1].node.chain.tip.hash == daemons[0].node.chain.tip.hash
    assert daemons[1].node.chain.tip.hash != tip_before
    assert agents[1].headers_received > 0
    assert agents[1].catchup_sessions >= 1


def test_equal_height_divergence_detected_by_tip_hash():
    """Same height, different branches: TipMessage's tip_hash triggers a
    catch-up that fetches the peer branch even with no height deficit."""
    sim, _wan, daemons, agents, miners = build_mesh(
        n=2, miner_seeds={0: 111, 1: 222})
    miners[0].mine_and_connect(1.0)
    miners[1].mine_and_connect(2.0)
    assert (daemons[0].node.chain.tip.hash
            != daemons[1].node.chain.tip.hash)
    sim.run(until=30.0)
    # Neither branch has more work, so no reorg — but both nodes now
    # *know* both branches (first-seen holds the active tip).
    assert sum(agent.catchup_sessions for agent in agents) >= 1
    assert daemons[0].node.chain.contains(daemons[1].node.chain.tip.hash)
    assert daemons[1].node.chain.contains(daemons[0].node.chain.tip.hash)


def test_round_robin_skips_backing_off_peer():
    sim, wan, daemons, agents, miners = build_mesh(n=3, sync_interval=5.0)
    # n2 never answers; n1 is healthy and ahead.
    wan.interceptor = lambda env: (
        FaultDecision(drop=True, reason="mute")
        if env.destination == "n2" else None)
    block = miners[1].mine_and_connect(1.0)
    sim.run(until=100.0)
    agent = agents[0]
    assert agent.requests.scores["n2"].failures >= 1
    assert agent.requests.scores["n1"].successes >= 1
    # Catch-up from the healthy peer still happened.
    assert daemons[0].node.height == 1
    assert daemons[0].node.chain.tip.hash == block.hash
    # Rounds kept running despite the mute peer.
    assert agent.rounds >= 5


def test_crash_resets_inflight_requests():
    sim, _wan, daemons, agents, miners = build_mesh(sync_interval=5.0)
    for i in range(2):
        miners[0].mine_and_connect(float(i))
    # Let a probe go out, then crash the prober mid-flight.
    sim.run(until=5.02)
    daemons[1].crash()
    assert len(agents[1].requests) == 0
    daemons[1].restart()
    sim.run(until=40.0)
    assert daemons[1].node.height == 2


def test_a_hostile_header_range_reads_one_window():
    """A peer picks ``above_height`` and ``limit``; the responder reads
    at most ``HEADER_WINDOW`` heights from genesis up, however far below
    genesis or past the tip the request reaches."""
    sim, wan, daemons, _agents, miners = build_mesh(sync_interval=50.0)
    for i in range(40):
        miners[0].mine_and_connect(float(i))
    chain = daemons[0].node.chain
    reads, replies = [], []
    block_at = chain.block_at

    def counted(height):
        reads.append(height)
        return block_at(height)

    def watch(env):
        if isinstance(env.payload, HeadersMessage):
            replies.append(env.payload)

    chain.block_at = counted
    wan.interceptor = watch
    wan.send("n1", "n0", GetHeadersMessage(above_height=-10**6,
                                           limit=10**6 + 32))
    wan.send("n1", "n0", GetHeadersMessage(above_height=0, limit=10**6))
    sim.run(until=1.0)
    window = SyncAgent.HEADER_WINDOW
    assert reads == list(range(1, window + 1))
    assert [len(reply.headers) for reply in replies] == [0, window]
    assert replies[1].headers[-1] == (window, chain.block_at(window).hash)


def test_a_hostile_txid_list_is_looked_up_one_request_at_a_time():
    """A peer picks the txids of a ``GetTxsMessage``; the responder looks
    up at most ``MAX_TXS_PER_REQUEST`` of them, and has nothing to send
    for txids it does not hold."""
    sim, wan, daemons, _agents, _miners = build_mesh(sync_interval=50.0)
    mempool = daemons[0].node.mempool
    lookups, replies = [0], []
    get = mempool.get

    def counted(txid):
        lookups[0] += 1
        return get(txid)

    def watch(env):
        if isinstance(env.payload, TxsMessage):
            replies.append(env.payload)

    mempool.get = counted
    wan.interceptor = watch
    wan.send("n1", "n0", GetTxsMessage(txids=(bytes(32),) * 10**6))
    sim.run(until=1.0)
    assert lookups[0] == SyncAgent.MAX_TXS_PER_REQUEST
    assert replies == []


def test_a_hostile_mempool_inventory_is_checked_one_request_at_a_time():
    """A peer picks the ``mempool_txids`` of its ``GetTipMessage``; the
    responder checks at most ``MAX_TXS_PER_REQUEST`` of them against its
    chain, and asks back for no more than that."""
    sim, wan, daemons, _agents, _miners = build_mesh(sync_interval=50.0)
    chain = daemons[0].node.chain
    checks, asks = [0], []
    confirmations = chain.confirmations

    def counted(txid):
        checks[0] += 1
        return confirmations(txid)

    def watch(env):
        if isinstance(env.payload, GetTxsMessage):
            asks.append(env.payload)

    chain.confirmations = counted
    wan.interceptor = watch
    txids = tuple(i.to_bytes(32, "big") for i in range(10**5))
    wan.send("n1", "n0", GetTipMessage(height=0, mempool_txids=txids))
    sim.run(until=1.0)
    assert checks[0] <= SyncAgent.MAX_TXS_PER_REQUEST
    assert [len(ask.txids) for ask in asks] == [SyncAgent.MAX_TXS_PER_REQUEST]
