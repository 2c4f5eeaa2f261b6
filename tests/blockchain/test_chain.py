"""Chain state: fork choice, reorgs, orphans."""

from __future__ import annotations

import random

import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import ORPHAN_POOL_SIZE, Chain, create_genesis_block
from repro.blockchain.miner import Miner
from repro.blockchain.mempool import Mempool
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.wallet import Wallet
from repro.chaos.verify import chain_digest, utxo_digest
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number


def make_coinbase(height, tag=0):
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(tag)]))],
        outputs=[TxOutput(value=50, script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )


def extend(chain, parent_hash, height, timestamp, tag=0, extra=()):
    block = Block.assemble(
        prev_hash=parent_hash, timestamp=timestamp,
        transactions=[make_coinbase(height, tag), *extra],
    )
    return block, chain.add_block(block)


def test_genesis_deterministic():
    params = ChainParams()
    assert create_genesis_block(params).hash == create_genesis_block(params).hash


def test_fresh_chain_at_genesis():
    chain = Chain()
    assert chain.height == 0
    assert chain.tip.block == chain.genesis
    assert len(chain.utxos) == 0  # genesis coinbase is OP_RETURN


def test_extend_tip():
    chain = Chain()
    block, result = extend(chain, chain.tip.hash, 1, 1.0)
    assert result.status == "active"
    assert chain.height == 1
    assert chain.tip.hash == block.hash


def test_duplicate_block():
    chain = Chain()
    block, _result = extend(chain, chain.tip.hash, 1, 1.0)
    assert chain.add_block(block).status == "duplicate"


def test_orphan_block_connected_when_parent_arrives():
    chain = Chain()
    parent = Block.assemble(prev_hash=chain.tip.hash, timestamp=1.0,
                            transactions=[make_coinbase(1)])
    child = Block.assemble(prev_hash=parent.hash, timestamp=2.0,
                           transactions=[make_coinbase(2)])
    assert chain.add_block(child).status == "orphan"
    assert chain.height == 0
    result = chain.add_block(parent)
    assert result.status == "active"
    assert chain.height == 2
    assert chain.tip.hash == child.hash


def test_children_of_a_refused_block_stay_within_the_orphan_bound():
    """A refused block is never stored, so its children never attach:
    twice the bound of them leaves the pool at the bound, and an honest
    child that arrives before its parent still attaches."""
    chain = Chain()
    refused = Block.assemble(
        prev_hash=chain.tip.hash, timestamp=1.0,
        transactions=[make_coinbase(1), make_coinbase(1, tag=1)])
    with pytest.raises(ValidationError):
        chain.add_block(refused)
    for tag in range(2 * ORPHAN_POOL_SIZE):
        child = Block.assemble(prev_hash=refused.hash, timestamp=2.0,
                               transactions=[make_coinbase(2, tag)])
        assert chain.add_block(child).status == "orphan"
        assert sum(map(len, chain._orphans.values())) <= ORPHAN_POOL_SIZE

    parent = Block.assemble(prev_hash=chain.tip.hash, timestamp=1.0,
                            transactions=[make_coinbase(1)])
    honest = Block.assemble(prev_hash=parent.hash, timestamp=2.0,
                            transactions=[make_coinbase(2)])
    assert chain.add_block(honest).status == "orphan"
    assert sum(map(len, chain._orphans.values())) == ORPHAN_POOL_SIZE
    assert chain.add_block(parent).status == "active"
    assert chain.height == 2 and chain.tip.hash == honest.hash


def test_an_orphan_refused_as_its_parent_arrives_takes_its_descendants():
    """An orphan that fails validation once its parent attaches is never
    stored, so its own waiting children, and theirs, can never attach:
    they leave the pool with it, and its valid sibling still attaches."""
    chain = Chain()
    parent = Block.assemble(prev_hash=chain.tip.hash, timestamp=1.0,
                            transactions=[make_coinbase(1)])
    refused = Block.assemble(
        prev_hash=parent.hash, timestamp=2.0,
        transactions=[make_coinbase(2), make_coinbase(2, tag=1)])
    child = Block.assemble(prev_hash=refused.hash, timestamp=3.0,
                           transactions=[make_coinbase(3)])
    grandchild = Block.assemble(prev_hash=child.hash, timestamp=4.0,
                                transactions=[make_coinbase(4)])
    sibling = Block.assemble(prev_hash=parent.hash, timestamp=2.0,
                             transactions=[make_coinbase(2, tag=2)])
    for block in (grandchild, child, refused, sibling):
        assert chain.add_block(block).status == "orphan"

    assert chain.add_block(parent).status == "active"
    assert chain.height == 2 and chain.tip.hash == sibling.hash
    assert not chain.contains(refused.hash)
    assert chain._orphans == {}


def test_side_chain_then_reorg():
    chain = Chain()
    genesis_hash = chain.tip.hash
    a1, _unused = extend(chain, genesis_hash, 1, 1.0, tag=1)
    a2, _unused = extend(chain, a1.hash, 2, 2.0, tag=1)
    assert chain.height == 2

    # A competing branch from genesis: shorter first (side), then longer.
    b1, result = extend(chain, genesis_hash, 1, 1.5, tag=2)
    assert result.status == "side"
    b2, result = extend(chain, b1.hash, 2, 2.5, tag=2)
    assert result.status == "side"  # equal work: first-seen wins
    assert chain.tip.hash == a2.hash

    b3, result = extend(chain, b2.hash, 3, 3.0, tag=2)
    assert result.status == "active"
    assert result.reorged
    assert set(result.disconnected) == {a1.hash, a2.hash}
    assert chain.tip.hash == b3.hash
    assert chain.height == 3


def test_reorg_rolls_utxos():
    chain = Chain()
    genesis_hash = chain.tip.hash
    a1, _unused = extend(chain, genesis_hash, 1, 1.0, tag=1)
    a_coin = OutPoint(txid=a1.coinbase.txid, index=0)
    assert chain.utxos.get(a_coin) is not None

    b1, _unused = extend(chain, genesis_hash, 1, 1.5, tag=2)
    b2, result = extend(chain, b1.hash, 2, 2.0, tag=2)
    assert result.reorged
    assert chain.utxos.get(a_coin) is None
    assert chain.utxos.get(OutPoint(txid=b1.coinbase.txid, index=0)) is not None
    assert chain.utxos.get(OutPoint(txid=b2.coinbase.txid, index=0)) is not None


def test_is_active_and_block_at():
    chain = Chain()
    block, _unused = extend(chain, chain.tip.hash, 1, 1.0)
    assert chain.is_active(block.hash)
    assert chain.block_at(1) == block
    assert chain.block_at(5) is None


def test_confirmations():
    chain = Chain()
    b1, _unused = extend(chain, chain.tip.hash, 1, 1.0)
    txid = b1.coinbase.txid
    assert chain.confirmations(txid) == 1
    b2, _unused = extend(chain, b1.hash, 2, 2.0)
    assert chain.confirmations(txid) == 2
    assert chain.confirmations(b"\x00" * 32) == 0


def test_find_transaction():
    chain = Chain()
    b1, _unused = extend(chain, chain.tip.hash, 1, 1.0)
    found = chain.find_transaction(b1.coinbase.txid)
    assert found == (b1.coinbase, 1)
    assert chain.find_transaction(b"\x00" * 32) is None


def test_connect_listener_fires_in_order():
    chain = Chain()
    seen = []
    chain.add_connect_listener(lambda block, height: seen.append(height))
    b1, _unused = extend(chain, chain.tip.hash, 1, 1.0)
    extend(chain, b1.hash, 2, 2.0)
    assert seen == [1, 2]


def test_invalid_block_rejected():
    chain = Chain()
    # Coinbase claiming too much.
    greedy = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(1)]))],
        outputs=[TxOutput(value=10**12,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )
    block = Block.assemble(prev_hash=chain.tip.hash, timestamp=1.0,
                           transactions=[greedy])
    with pytest.raises(ValidationError):
        chain.add_block(block)
    assert chain.height == 0


def test_block_spending_unknown_output_rejected():
    chain = Chain()
    bogus = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x09" * 32, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    block = Block.assemble(prev_hash=chain.tip.hash, timestamp=1.0,
                           transactions=[make_coinbase(1), bogus])
    with pytest.raises(ValidationError):
        chain.add_block(block)


def test_double_spend_across_reorg_resolves_to_one_branch(rng):
    """The §6 scenario at the chain level: only one spend survives."""
    params = ChainParams(coinbase_maturity=1)
    node = FullNode(params, "n")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for i in range(3):
        miner.mine_and_connect(float(i))

    alice = KeyPair.generate(rng)
    bob = KeyPair.generate(rng)
    pay_alice = wallet.create_payment(alice.pubkey_hash, 100)
    wallet.release_pending(pay_alice)
    pay_bob = wallet.create_payment(bob.pubkey_hash, 100)
    shared = ({i.outpoint for i in pay_alice.inputs}
              & {i.outpoint for i in pay_bob.inputs})
    assert shared

    tip = node.chain.tip
    block_alice = Block.assemble(
        prev_hash=tip.hash, timestamp=10.0,
        transactions=[make_coinbase(tip.height + 1, tag=1), pay_alice],
    )
    assert node.chain.add_block(block_alice).status == "active"
    alice_coin = OutPoint(txid=pay_alice.txid, index=0)
    assert node.chain.utxos.get(alice_coin) is not None

    # A competing branch confirms the conflicting payment to bob.
    block_bob = Block.assemble(
        prev_hash=tip.hash, timestamp=10.5,
        transactions=[make_coinbase(tip.height + 1, tag=2), pay_bob],
    )
    node.chain.add_block(block_bob)
    block_bob2 = Block.assemble(
        prev_hash=block_bob.hash, timestamp=11.0,
        transactions=[make_coinbase(tip.height + 2, tag=2)],
    )
    result = node.chain.add_block(block_bob2)
    assert result.reorged
    assert node.chain.utxos.get(alice_coin) is None
    assert node.chain.utxos.get(OutPoint(txid=pay_bob.txid, index=0)) is not None


# -- add_blocks == the per-block add_block loop --------------------------------

CORPUS_PARAMS = ChainParams(coinbase_maturity=1)


@pytest.fixture(scope="module")
def corpus():
    """Ten mined blocks carrying signed spends, in chain order."""
    rng = random.Random(0x5EED)
    node = FullNode(CORPUS_PARAMS, "builder")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for i in range(10):
        if i == 2:
            # Split the first matured coinbase so later blocks can carry
            # several independent spends each.
            fanout = wallet.create_fanout(wallet.pubkey_hash, 1_000, 24)
            assert node.mempool.accept(fanout).accepted
        elif i >= 3:
            for _ in range(rng.randint(1, 3)):
                tx = wallet.create_payment(
                    KeyPair.generate(rng).pubkey_hash, rng.randint(50, 500))
                assert node.mempool.accept(tx).accepted
        miner.mine_and_connect(float(i))
    return [node.chain.block_at(h) for h in range(1, node.chain.height + 1)]


def corrupt_signature(block: Block) -> Block:
    """Flip one signature bit in the block's first non-coinbase spend."""
    target = block.transactions[1]
    sig, pubkey = target.inputs[0].script_sig.elements
    transactions = list(block.transactions)
    transactions[1] = target.with_input_script(
        0, Script([bytes([sig[0] ^ 1]) + sig[1:], pubkey]))
    return Block.assemble(
        prev_hash=block.header.prev_hash,
        timestamp=block.header.timestamp,
        transactions=transactions,
        nonce=block.header.nonce,
    )


def assert_add_blocks_equivalent(blocks, verify_scripts):
    """``add_blocks`` must match a per-block ``add_block`` loop on
    statuses, error strings, orphan map, and chain/UTXO digests."""
    looped = Chain(CORPUS_PARAMS, verify_scripts=verify_scripts)
    outcomes = []
    for block in blocks:
        try:
            result = looped.add_block(block)
            outcomes.append((result.status, result.reason))
        except ValidationError as exc:
            outcomes.append(("invalid", str(exc)))
    batched = Chain(CORPUS_PARAMS, verify_scripts=verify_scripts)
    results = batched.add_blocks(blocks)
    assert [(r.status, r.reason) for r in results] == outcomes
    assert chain_digest(batched) == chain_digest(looped)
    assert utxo_digest(batched) == utxo_digest(looped)
    assert dict(batched._orphans) == dict(looped._orphans)
    return batched, outcomes


def test_add_blocks_clean_chain_equivalence(corpus):
    _, outcomes = assert_add_blocks_equivalent(corpus, verify_scripts=True)
    assert all(status == "active" for status, _ in outcomes)


def test_add_blocks_clean_chain_equivalence_without_scripts(corpus):
    assert_add_blocks_equivalent(corpus, verify_scripts=False)


@pytest.mark.parametrize("bad_at", [4, 6, 9])
def test_add_blocks_invalid_block_equivalence(corpus, bad_at):
    """A bad signature mid-stream: same error string, same orphan stash."""
    blocks = list(corpus)
    blocks[bad_at] = corrupt_signature(blocks[bad_at])
    _, outcomes = assert_add_blocks_equivalent(blocks, verify_scripts=True)
    assert outcomes[bad_at][0] == "invalid"
    assert "script verification failed" in outcomes[bad_at][1]
    for status, _ in outcomes[bad_at + 1:]:
        assert status == "orphan"


def test_add_blocks_invalid_block_not_detected_when_verification_off(corpus):
    """Fig. 5 config: with scripts off the bad block connects."""
    blocks = list(corpus)
    blocks[5] = corrupt_signature(blocks[5])
    _, outcomes = assert_add_blocks_equivalent(blocks, verify_scripts=False)
    assert outcomes[5][0] == "active"


def test_add_blocks_non_contiguous_batch(corpus):
    """Out-of-order delivery: the early block is stashed as an orphan and
    adopted when its parent arrives."""
    shuffled = [corpus[1], corpus[0], *corpus[2:4]]
    chain, outcomes = assert_add_blocks_equivalent(shuffled,
                                                   verify_scripts=True)
    assert [status for status, _ in outcomes[:2]] == ["orphan", "active"]
    assert chain.height == 4


def test_add_blocks_empty_and_single(corpus):
    chain = Chain(CORPUS_PARAMS, verify_scripts=True)
    assert chain.add_blocks([]) == []
    results = chain.add_blocks(corpus[:1])
    assert [r.status for r in results] == ["active"]
