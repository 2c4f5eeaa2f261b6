"""Mempool admission: validation, conflicts, eviction, block templates."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.mempool import (
    AcceptResult,
    REJECT_COINBASE,
    REJECT_CONFLICT,
    REJECT_DUPLICATE,
    REJECT_IMMATURE,
    REJECT_MISSING_INPUTS,
    REJECT_NONSTANDARD,
    REJECT_NON_FINAL,
    REJECT_SCRIPT,
    REJECT_VALUE,
)
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.transaction import (
    OutPoint,
    SEQUENCE_FINAL,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.wallet import Wallet
from repro.crypto.keys import KeyPair
from repro.p2p.gossip import GossipNode
from repro.p2p.network import WANetwork
from repro.script.builder import p2pkh_locking
from repro.script.script import Script
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry
from tests.oracles.coin_selection_reference import spendable
from tests.oracles.fees import paying_fee


def test_accept_valid_payment(funded_chain, rng):
    node, wallet, _miner = funded_chain
    to = KeyPair.generate(rng)
    tx = wallet.create_payment(to.pubkey_hash, 100)
    result = node.mempool.accept(tx)
    assert result.accepted
    assert result.txid == tx.txid
    assert result.reason == "" and result.reason_code == ""
    assert tx.txid in node.mempool
    assert node.mempool.get(tx.txid) == tx


def test_reject_duplicate(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    repeat = node.mempool.accept(tx)
    assert not repeat.accepted
    assert repeat.reason_code == REJECT_DUPLICATE
    assert "already in pool" in repeat.reason


def test_reject_coinbase(funded_chain):
    node, _wallet, miner = funded_chain
    coinbase = miner.build_coinbase(99, 0)
    result = node.mempool.accept(coinbase)
    assert not result.accepted
    assert result.reason_code == REJECT_COINBASE


def test_reject_double_spend(funded_chain, rng):
    node, wallet, _miner = funded_chain
    first = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    node.mempool.accept(first)
    wallet.release_pending(first)
    second = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 200)
    shared = ({i.outpoint for i in first.inputs}
              & {i.outpoint for i in second.inputs})
    assert shared
    result = node.mempool.accept(second)
    assert not result.accepted
    assert result.reason_code == REJECT_CONFLICT
    assert node.mempool.conflicts_with(second) == [first.txid]


def test_reject_missing_input(funded_chain):
    node, _wallet, _miner = funded_chain
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x07" * 32, index=0))],
        outputs=[TxOutput(value=1,
                          script_pubkey=p2pkh_locking(b"\x07" * 20))],
    )
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_MISSING_INPUTS
    assert "not in UTXO set" in result.reason


def test_reject_value_inflation(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    inflated = Transaction(
        inputs=tx.inputs,
        outputs=[TxOutput(value=10**15,
                          script_pubkey=p2pkh_locking(b"\x07" * 20))],
        locktime=tx.locktime,
    )
    result = node.mempool.accept(inflated)
    assert not result.accepted
    assert result.reason_code == REJECT_VALUE


def test_reject_bad_signature(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    tampered = tx.with_input_script(
        0, Script([b"\x00" * 64, wallet.pubkey_bytes])
    )
    result = node.mempool.accept(tampered)
    assert not result.accepted
    assert result.reason_code == REJECT_SCRIPT
    assert "script verification failed" in result.reason


def test_reject_non_final(funded_chain, rng):
    node, wallet, _miner = funded_chain
    to = KeyPair.generate(rng)
    coins = spendable(wallet)
    tx = Transaction(
        inputs=[TxInput(outpoint=coins[0][0], sequence=0)],
        outputs=[TxOutput(value=coins[0][1],
                          script_pubkey=p2pkh_locking(to.pubkey_hash))],
        locktime=node.chain.height + 50,
    )
    tx = tx.with_input_script(
        0, Script([wallet.sign_input(tx, 0,
                                     p2pkh_locking(wallet.pubkey_hash)),
                   wallet.pubkey_bytes]),
    )
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NON_FINAL


def test_unconfirmed_chaining(funded_chain, rng):
    node, wallet, _miner = funded_chain
    middle = KeyPair.generate(rng)
    parent = wallet.create_payment(middle.pubkey_hash, 1000)
    assert node.mempool.accept(parent).accepted

    # Build a child spending the unconfirmed output.
    parent_index = next(
        i for i, out in enumerate(parent.outputs)
        if out.script_pubkey.to_bytes()
        == p2pkh_locking(middle.pubkey_hash).to_bytes()
    )
    final = KeyPair.generate(rng)
    child = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid,
                                          index=parent_index))],
        outputs=[TxOutput(value=900,
                          script_pubkey=p2pkh_locking(final.pubkey_hash))],
    )
    digest = child.sighash(0, p2pkh_locking(middle.pubkey_hash))
    child = child.with_input_script(
        0, Script([middle.sign(digest).to_bytes(),
                   middle.public_key.to_bytes()]),
    )
    assert node.mempool.accept(child).accepted
    assert child.txid in node.mempool


def test_remove_confirmed_evicts_conflicts(funded_chain, rng):
    node, wallet, _miner = funded_chain
    first = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(first).accepted
    wallet.release_pending(first)
    # A conflicting tx confirmed in a block evicts the pool's version.
    conflicting = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 150)
    removed = node.mempool.remove_confirmed([conflicting])
    assert removed == 1
    assert first.txid not in node.mempool


def test_select_for_block_respects_dependencies(funded_chain, rng):
    node, wallet, _miner = funded_chain
    middle = KeyPair.generate(rng)
    parent = wallet.create_payment(middle.pubkey_hash, 1000)
    assert node.mempool.accept(parent).accepted
    selected = node.mempool.select_for_block(1_000_000)
    assert parent in selected


def test_select_for_block_respects_size(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    assert node.mempool.select_for_block(10) == []


def test_remove_returns_transaction(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    assert node.mempool.remove(tx.txid) == tx
    assert node.mempool.remove(tx.txid) is None
    assert len(node.mempool) == 0


def _spend_output(parent, index, key, to_pubkey_hash, value):
    """A one-input spend of ``parent``'s output ``index``, owned by ``key``."""
    child = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid, index=index))],
        outputs=[TxOutput(value=value,
                          script_pubkey=p2pkh_locking(to_pubkey_hash))],
    )
    digest = child.sighash(0, p2pkh_locking(key.pubkey_hash))
    return child.with_input_script(
        0, Script([key.sign(digest).to_bytes(), key.public_key.to_bytes()]))


def test_remove_confirmed_drops_the_losers_descendants(funded_chain, rng):
    """The loser of a double spend leaves the pool with its pooled
    children, so the next template never carries an orphaned child."""
    node, wallet, miner = funded_chain
    middle = KeyPair.generate(rng)
    loser = wallet.create_payment(middle.pubkey_hash, 1000)
    assert node.mempool.accept(loser).accepted
    child = _spend_output(loser, 0, middle,
                          KeyPair.generate(rng).pubkey_hash, 900)
    assert loser.outputs[0].value == 1000
    assert node.mempool.accept(child).accepted
    wallet.release_pending(loser)
    winner = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 1500)
    assert ({i.outpoint for i in winner.inputs}
            & {i.outpoint for i in loser.inputs})

    # The winner confirms in a block mined on a twin of the node's chain.
    twin = FullNode(node.params, "twin")
    for _height, block in node.chain.iter_active_blocks(start_height=1):
        twin.submit_block(block)
    assert twin.mempool.accept(winner).accepted
    block = Miner(chain=twin.chain, mempool=twin.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash).mine_and_connect(50.0)
    assert node.submit_block(block).status == "active"

    assert loser.txid not in node.mempool
    assert child.txid not in node.mempool
    assert len(node.mempool) == 0
    miner.mine_and_connect(60.0)
    assert node.chain.tip.block.header.prev_hash == block.hash


def test_accept_result_is_frozen():
    result = AcceptResult(accepted=True, txid=b"\x01" * 32)
    with pytest.raises(AttributeError):
        result.accepted = False


# -- one path: fees and verdicts ------------------------------------------------

def _node(params, rng, blocks):
    """A node whose wallet owns ``blocks`` coinbases; returns
    ``(node, key, wallet, miner)``."""
    node = FullNode(params, "one-path")
    key = KeyPair.generate(rng)
    wallet = Wallet(node.chain, key)
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for i in range(blocks):
        miner.mine_and_connect(float(i))
    return node, key, wallet, miner


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 1_000)),
                min_size=1, max_size=6))
def test_template_claims_the_fees_admission_recorded(spends):
    """Confirmed-funded spends and chains of unconfirmed ones, each with
    its own fee: the template's coinbase claims the subsidy plus exactly
    their fees, and connecting it computes the same total."""
    rng = random.Random(41)
    node, _key, wallet, miner = _node(ChainParams(coinbase_maturity=1),
                                      rng, blocks=7)
    middle = KeyPair.generate(rng)
    fees, last = [], None
    for chained, fee in spends:
        if chained and last is not None:
            tx = _spend_output(last, 0, middle, middle.pubkey_hash,
                               last.outputs[0].value - fee)
        else:
            with paying_fee(wallet, fee):
                tx = wallet.create_payment(middle.pubkey_hash, 10_000)
        assert node.submit_transaction(tx).accepted
        fees.append(fee)
        last = tx
    block = miner.mine(100.0)
    assert len(block.transactions) == 1 + len(spends)
    claimed = block.coinbase.total_output_value - COINBASE_REWARD
    assert claimed == sum(fees)
    assert node.submit_block(block).status == "active"
    assert node.chain.last_report.total_fees == claimed


def _orphan(node, key, wallet, miner, rng):
    middle = KeyPair.generate(rng)
    parent = wallet.create_payment(middle.pubkey_hash, 1_000)
    return _spend_output(parent, 0, middle, middle.pubkey_hash, 900)


def _immature(node, key, wallet, miner, rng):
    coinbase = node.chain.tip.block.coinbase
    return _spend_output(coinbase, 0, key, key.pubkey_hash,
                         coinbase.outputs[0].value)


def _overspend(node, key, wallet, miner, rng):
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    return Transaction(inputs=tx.inputs,
                       outputs=[TxOutput(value=10**15,
                                         script_pubkey=p2pkh_locking(
                                             b"\x07" * 20))])


def _non_final(node, key, wallet, miner, rng):
    coin, value = spendable(wallet)[0]
    tx = Transaction(
        inputs=[TxInput(outpoint=coin, sequence=0)],
        outputs=[TxOutput(value=value,
                          script_pubkey=p2pkh_locking(key.pubkey_hash))],
        locktime=node.chain.height + 50,
    )
    return tx.with_input_script(
        0, Script([wallet.sign_input(tx, 0, p2pkh_locking(key.pubkey_hash)),
                   wallet.pubkey_bytes]))


def _pooled(node, key, wallet, miner, rng):
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.submit_transaction(tx).accepted
    return tx


def _confirmed(node, key, wallet, miner, rng):
    tx = _pooled(node, key, wallet, miner, rng)
    miner.mine_and_connect(50.0)
    return tx


def _conflicting(node, key, wallet, miner, rng):
    first = _pooled(node, key, wallet, miner, rng)
    wallet.release_pending(first)
    return wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 200)


def _nonstandard(node, key, wallet, miner, rng):
    return wallet._build_spend(
        [TxOutput(value=5, script_pubkey=Script((b"",)))])


def _bad_script(node, key, wallet, miner, rng):
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    return tx.with_input_script(0, Script([b"\x00" * 64,
                                           wallet.pubkey_bytes]))


# (build, reason_code, what gossip does with it).  "parked" waits with
# the orphans for a later block or parent; "known" is remembered and
# dropped on repeat.
REFUSALS = {
    "missing-parent": (_orphan, REJECT_MISSING_INPUTS, "parked"),
    "immature-coinbase": (_immature, REJECT_IMMATURE, "parked"),
    "value-overflow": (_overspend, REJECT_VALUE, "known"),
    "non-final": (_non_final, REJECT_NON_FINAL, "parked"),
    "duplicate": (_pooled, REJECT_DUPLICATE, "known"),
    "already-confirmed": (_confirmed, REJECT_DUPLICATE, "known"),
    "conflict": (_conflicting, REJECT_CONFLICT, "known"),
    "nonstandard": (_nonstandard, REJECT_NONSTANDARD, "known"),
    "bad-script": (_bad_script, REJECT_SCRIPT, "known"),
}


def gossip_fate(name):
    """``(reason_code, fate)`` of the ``name`` refusal: the node's verdict,
    then where a gossip relay over the same node puts the transaction."""
    build = REFUSALS[name][0]
    rng = random.Random(name)
    node, key, wallet, miner = _node(ChainParams(coinbase_maturity=3),
                                     rng, blocks=6)
    tx = build(node, key, wallet, miner, rng)
    verdict = node.submit_transaction(tx)
    assert not verdict.accepted and verdict.txid == tx.txid
    sim = Simulator()
    wan = WANetwork(sim, RngRegistry(0).stream("wan"),
                    latency=ConstantLatency(delay=0.05))
    gossip = GossipNode(node, wan)
    gossip.receive_transaction(tx, origin="peer")
    parked = gossip.orphan_count == 1
    known = tx.txid in gossip._known_txids
    assert parked != known
    return verdict.reason_code, "parked" if parked else "known"


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_has_one_code_and_one_gossip_fate(name):
    _build, code, fate = REFUSALS[name]
    assert gossip_fate(name) == (code, fate)
