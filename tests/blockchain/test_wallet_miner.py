"""Wallet coin tracking, transaction building, and the miner."""

from __future__ import annotations

import pytest

from repro.blockchain.chain import Chain
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import COIN, COINBASE_REWARD, ChainParams
from repro.blockchain.wallet import Wallet
from repro.crypto import rsa
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import parse_ephemeral_key_release
from tests.oracles.coin_selection_reference import spendable
import random
from tests.oracles.fees import paying_fee


def test_wallet_tracks_coinbase_rewards(funded_chain):
    node, wallet, _miner = funded_chain
    assert wallet.balance == 5 * COINBASE_REWARD


def test_immature_coinbase_not_spendable(rng):
    params = ChainParams(coinbase_maturity=3)
    node = FullNode(params, "n")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    miner.mine_and_connect(0.0)
    assert wallet.balance == COINBASE_REWARD
    assert spendable(wallet) == []
    for i in range(3):
        miner.mine_and_connect(float(i + 1))
    assert len(spendable(wallet)) == 1


def test_payment_roundtrip(funded_chain, rng):
    node, wallet, miner = funded_chain
    receiver = Wallet(node.chain, KeyPair.generate(rng))
    receiver.watch_chain()
    with paying_fee(wallet, 1000):
        tx = wallet.create_payment(receiver.pubkey_hash, 3 * COIN)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(10.0)
    assert receiver.balance == 3 * COIN


def test_payment_includes_change(funded_chain, rng):
    node, wallet, _miner = funded_chain
    before = wallet.balance
    with paying_fee(wallet, 10):
        tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    change = [o for o in tx.outputs
              if o.script_pubkey.elements[2] == wallet.pubkey_hash]
    assert change
    input_total = sum(
        node.chain.utxos.get(i.outpoint).value for i in tx.inputs
    )
    assert input_total - tx.total_output_value == 10  # the fee
    # Spent inputs are reserved until the tx confirms.
    assert wallet.balance == before - input_total


def test_insufficient_funds(funded_chain, rng):
    _node, wallet, _miner = funded_chain
    with pytest.raises(ValidationError):
        wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 10**15)


def test_payment_amount_must_be_positive(funded_chain, rng):
    _node, wallet, _miner = funded_chain
    with pytest.raises(ValidationError):
        wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 0)


def test_release_pending_restores_balance(funded_chain, rng):
    _node, wallet, _miner = funded_chain
    before = wallet.balance
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert wallet.balance < before
    wallet.release_pending(tx)
    assert wallet.balance == before


def test_create_fanout(funded_chain, rng):
    node, wallet, miner = funded_chain
    receiver = Wallet(node.chain, KeyPair.generate(rng))
    receiver.watch_chain()
    tx = wallet.create_fanout(receiver.pubkey_hash, 250, 40)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(20.0)
    assert receiver.balance == 40 * 250
    assert len(spendable(receiver)) == 40


def test_fanout_validation(funded_chain):
    _node, wallet, _miner = funded_chain
    with pytest.raises(ValidationError):
        wallet.create_fanout(b"\x01" * 20, 0, 5)
    with pytest.raises(ValidationError):
        wallet.create_fanout(b"\x01" * 20, 10, 0)


def test_announcement_confirms(funded_chain):
    node, wallet, miner = funded_chain
    tx = wallet.create_announcement(b"BCWIP1-test-payload")
    assert node.submit_transaction(tx).accepted
    block = miner.mine_and_connect(30.0)
    assert any(t.txid == tx.txid for t in block.transactions)


def test_key_release_offer_claim_flow(funded_chain, rng):
    node, wallet, miner = funded_chain
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    gateway.watch_chain()
    ephemeral = rsa.generate_keypair(512, rng)

    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=500,
    )
    assert offer.amount == 500
    parsed = parse_ephemeral_key_release(
        offer.transaction.outputs[offer.output_index].script_pubkey
    )
    assert parsed is not None
    assert parsed[3] == node.chain.height + node.params.locktime_grace

    assert node.submit_transaction(offer.transaction).accepted
    claim = gateway.claim_key_release(offer, ephemeral.to_bytes())
    assert node.submit_transaction(claim).accepted
    miner.mine_and_connect(40.0)
    gateway.refresh_from_utxo_set()
    assert gateway.balance == 500


def test_claim_with_wrong_key_rejected(funded_chain, rng):
    node, wallet, _miner = funded_chain
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    gateway.watch_chain()
    ephemeral = rsa.generate_keypair(512, rng)
    wrong = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=500,
    )
    assert node.submit_transaction(offer.transaction).accepted
    claim = gateway.claim_key_release(offer, wrong.to_bytes())
    assert not node.submit_transaction(claim).accepted


def test_refund_respects_locktime(funded_chain, rng):
    node, wallet, miner = funded_chain
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=500,
        refund_locktime=node.chain.height + 3,
    )
    assert node.submit_transaction(offer.transaction).accepted
    miner.mine_and_connect(50.0)
    refund = wallet.refund_key_release(offer)
    assert not node.submit_transaction(refund).accepted  # too early
    for i in range(3):
        miner.mine_and_connect(51.0 + i)
    assert node.submit_transaction(refund).accepted


def test_offer_fee_cannot_consume_amount(funded_chain, rng):
    node, wallet, _miner = funded_chain
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=10,
    )
    with pytest.raises(ValidationError), paying_fee(gateway, 10):
        gateway.claim_key_release(offer, ephemeral.to_bytes())


# -- miner ------------------------------------------------------------------------

def test_coinbase_txids_unique_per_height(funded_chain):
    node, _wallet, _miner = funded_chain
    txids = set()
    for _height, block in node.chain.iter_active_blocks(1):
        txids.add(block.coinbase.txid)
    assert len(txids) == node.chain.height


def test_miner_collects_fees(funded_chain, rng):
    node, wallet, miner = funded_chain
    with paying_fee(wallet, 5000):
        tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.submit_transaction(tx).accepted
    block = miner.mine_and_connect(60.0)
    assert block.coinbase.total_output_value == (
        COINBASE_REWARD + 5000
    )


def test_miner_requires_20_byte_reward_hash(funded_chain):
    node, _wallet, _miner = funded_chain
    with pytest.raises(ValidationError):
        Miner(chain=node.chain, mempool=node.mempool,
              reward_pubkey_hash=b"\x01" * 19)


def test_mempool_cleared_after_mining(funded_chain, rng):
    node, wallet, miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.submit_transaction(tx).accepted
    assert len(node.mempool) == 1
    miner.mine_and_connect(70.0)
    assert len(node.mempool) == 0
