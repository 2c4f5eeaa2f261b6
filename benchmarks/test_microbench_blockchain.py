"""Microbenchmarks of the blockchain substrate's hot paths.

Not a paper figure — engineering instrumentation for the reproduction
itself: how much host CPU one exchange's chain work costs, which bounds
how large a simulated workload is practical.  (The simulated *latency*
of these operations comes from the cost model, not from these numbers.)
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.conftest import print_header, print_row
from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.engine import ValidationEngine
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (COINBASE_OUTPOINT, OutPoint,
                                           Transaction, TxInput, TxOutput)
from repro.blockchain.utxo import UTXOEntry, UTXOSet
from repro.blockchain.wallet import Wallet
from repro.crypto import rsa
from repro.crypto.keys import KeyPair
from repro.script.script import Script, encode_number


@pytest.fixture(scope="module")
def stack():
    rng = random.Random(0xBEEF)
    params = ChainParams(coinbase_maturity=1)
    node = FullNode(params, "bench")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for i in range(30):
        miner.mine_and_connect(float(i))
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    gateway.watch_chain()
    ephemeral = rsa.generate_keypair(512, rng)
    return rng, node, wallet, miner, gateway, ephemeral


def test_bench_build_and_sign_payment(benchmark, stack):
    rng, _node, wallet, _miner, gateway, _ephemeral = stack

    def build():
        tx = wallet.create_payment(gateway.pubkey_hash, 100)
        wallet.release_pending(tx)
        return tx

    benchmark(build)


def test_bench_build_key_release_offer(benchmark, stack):
    _rng, _node, wallet, _miner, gateway, ephemeral = stack
    epk = ephemeral.public_key.to_bytes()

    def build():
        offer = wallet.create_key_release_offer(
            epk, gateway.pubkey_hash, amount=100)
        wallet.release_pending(offer.transaction)
        return offer

    benchmark(build)


def _entries(tx, utxos):
    """The entries ``tx``'s inputs spend, in input order."""
    return [utxos.get(tx_input.outpoint) for tx_input in tx.inputs]


def test_bench_script_verification_p2pkh(benchmark, stack):
    _rng, node, wallet, _miner, gateway, _ephemeral = stack
    tx = wallet.create_payment(gateway.pubkey_hash, 100)
    wallet.release_pending(tx)
    # A fresh engine per round keeps this a pure interpreter benchmark
    # (no cache hits), matching what the old shim measured.
    benchmark(lambda: ValidationEngine(node.params)
              .verify_input_scripts(tx, _entries(tx, node.chain.utxos)))


def test_bench_claim_script_verification(benchmark, stack):
    """The full Listing-1 claim path: OP_CHECKRSA512PAIR + OP_CHECKSIG."""
    _rng, node, wallet, miner, gateway, ephemeral = stack
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=100)
    assert node.submit_transaction(offer.transaction).accepted
    miner.mine_and_connect(100.0)
    claim = gateway.claim_key_release(offer, ephemeral.to_bytes())
    benchmark(lambda: ValidationEngine(node.params)
              .verify_input_scripts(claim,
                                    _entries(claim, node.chain.utxos)))


def test_bench_script_verification_cold_cache(benchmark, stack):
    """Every round pays the interpreter: a fresh engine per call.

    Paired with the warm benchmark below, the BENCH json captures the
    script-cache speedup trajectory across PRs.
    """
    _rng, node, wallet, _miner, gateway, _ephemeral = stack
    tx = wallet.create_payment(gateway.pubkey_hash, 100)
    wallet.release_pending(tx)

    def cold():
        engine = ValidationEngine(node.params)
        engine.verify_input_scripts(tx, _entries(tx, node.chain.utxos))

    benchmark(cold)


def test_bench_script_verification_warm_cache(benchmark, stack):
    """Steady state after mempool admission: every verdict is a cache hit."""
    _rng, node, wallet, _miner, gateway, _ephemeral = stack
    tx = wallet.create_payment(gateway.pubkey_hash, 100)
    wallet.release_pending(tx)
    engine = ValidationEngine(node.params)
    entries = _entries(tx, node.chain.utxos)
    engine.verify_input_scripts(tx, entries)  # warm it

    benchmark(lambda: engine.verify_input_scripts(tx, entries))
    # Only the warm-up paid the interpreter; every benchmarked round hit.
    assert engine.cache_stats.misses == len(tx.inputs)
    assert engine.cache_stats.hits >= len(tx.inputs)


def test_bench_mempool_accept(benchmark, stack):
    _rng, node, wallet, _miner, gateway, _ephemeral = stack

    def accept_and_remove():
        tx = wallet.create_payment(gateway.pubkey_hash, 100)
        node.mempool.accept(tx)
        node.mempool.remove(tx.txid)
        wallet.release_pending(tx)

    benchmark(accept_and_remove)


def test_bench_block_assembly_and_connect(benchmark, stack):
    _rng, node, wallet, miner, gateway, _ephemeral = stack

    def mine_one():
        tx = wallet.create_payment(gateway.pubkey_hash, 100)
        node.submit_transaction(tx)
        miner.mine_and_connect(float(node.chain.height + 1000))

    benchmark.pedantic(mine_one, rounds=10, iterations=1)


# -- reorgs: each block validated once, then reverted and replayed ------------

REORG_FILLER = 20_000
REORG_WIDTH = 32
REORG_DEPTH = 12
LOCK = Script([b"\x01"])


def _coinbase(level: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(level)]))],
        outputs=[TxOutput(value=1, script_pubkey=LOCK)] * REORG_WIDTH)


def _zigzag_branch(root: Block, tag: int, depth: int) -> list[Block]:
    """``depth`` blocks on ``root``; each spends every coinbase output of
    its parent and pays ``REORG_WIDTH`` outputs of its own."""
    blocks, parent = [], root
    for level in range(tag, tag + depth):
        spends = [Transaction(
            inputs=[TxInput(outpoint=outpoint)],
            outputs=[TxOutput(value=1, script_pubkey=Script(
                [encode_number(level), encode_number(index)]))])
            for index, outpoint in enumerate(
                parent.transactions[0].outpoints)]
        parent = Block.assemble(prev_hash=parent.hash, timestamp=float(level),
                                transactions=[_coinbase(level), *spends])
        blocks.append(parent)
    return blocks


def test_zigzag_reorg_replays_every_reconnect(monkeypatch):
    """Two branches fed A1 | B1 B2 | A2 A3 | ... beside 2x10^4 filler
    outputs, as the ``ledger_reorg`` workload feeds them.  Gated on
    counts: the engine connects each distinct block once, and every other
    connect is a replay of the block's delta.  Prints microseconds per
    block moved (disconnected or connected) for the record."""
    chain = Chain(ChainParams(coinbase_maturity=0), verify_scripts=False)
    filler = UTXOEntry(TxOutput(value=1, script_pubkey=LOCK), 0, False)
    for number in range(REORG_FILLER):
        chain.utxos.add(OutPoint(number.to_bytes(32, "big"), 0), filler)
    root = Block.assemble(prev_hash=chain.genesis.hash, timestamp=1.0,
                          transactions=[_coinbase(1)])
    assert chain.add_block(root).status == "active"
    a = _zigzag_branch(root, 100, REORG_DEPTH - 1)
    b = _zigzag_branch(root, 200, REORG_DEPTH)
    feeds, taken, side = [a[:1]], [1, 0], 1
    while taken[side] < len((a, b)[side]):
        feeds.append((a, b)[side][taken[side]:taken[side] + 2])
        taken[side] += 2
        side = 1 - side

    connects, applies = [], []
    connect = chain.engine.connect_block
    chain.engine.connect_block = lambda block, *args: (
        connects.append(block.hash) or connect(block, *args))
    apply_delta = UTXOSet.apply_delta
    monkeypatch.setattr(UTXOSet, "apply_delta", lambda self, *delta: (
        applies.append(1) or apply_delta(self, *delta)))
    connected = disconnected = 0
    start = time.perf_counter()
    for blocks in feeds:
        for block in blocks:
            result = chain.add_block(block)
            connected += len(result.connected)
            disconnected += len(result.disconnected)
    elapsed = time.perf_counter() - start

    distinct = len(a) + len(b)
    assert chain.tip.hash == b[-1].hash
    assert sorted(connects) == sorted(block.hash for block in a + b)
    # A first connect commits its view through one apply_delta; every
    # other apply_delta is a replay.
    replays = len(applies) - len(connects)
    assert replays == connected - distinct > 0
    assert len(chain.utxos) == REORG_FILLER + REORG_WIDTH * (1 + len(b))
    moved = connected + disconnected
    print_header(f"zig-zag reorg, {REORG_WIDTH} spends per block, beside "
                 f"{REORG_FILLER} filler outputs")
    print_row("(columns)", "blocks moved", "connects", "replays", "us/move")
    print_row("two branches", moved, len(connects), replays,
              round(elapsed / moved * 1e6, 1))
