"""Microbenchmarks of the blockchain substrate's hot paths.

Not a paper figure — engineering instrumentation for the reproduction
itself: how much host CPU one exchange's chain work costs, which bounds
how large a simulated workload is practical.  (The simulated *latency*
of these operations comes from the cost model, not from these numbers.)
"""

from __future__ import annotations

import random

import pytest

from repro.blockchain.engine import ValidationEngine
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.crypto import rsa
from repro.crypto.keys import KeyPair


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
