"""``Chain.confirmations`` and ``Chain.find_transaction`` read a txid index
of the active chain; here they are held to a walk of the active chain.

Random block trees are fed to a chain: branches off any stored block,
reorganisations, blocks that fail at connect (so a reorg onto them fails
and restores the old branch) and a closing restart that replays the
chain's own snapshot.  The index catches up when asked, so the chain is
asked after some steps only: it must also be right after pushes and pops
it never saw.  When asked, both answers equal the scan's for every txid
ever built, one never built, and a *twin*: one coinbase that may occur
at several heights of the active chain, each copy once the previous
one's output is spent.
"""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.store import load_chain, save_chain
from repro.blockchain.transaction import (COINBASE_OUTPOINT, OutPoint,
                                           Transaction, TxInput, TxOutput)
from repro.errors import ValidationError
from repro.script.script import Script, encode_number

PARAMS = ChainParams(coinbase_maturity=1)
TWIN = Transaction(
    inputs=[TxInput(outpoint=COINBASE_OUTPOINT, script_sig=Script([b"twin"]))],
    outputs=[TxOutput(value=1, script_pubkey=Script([b"twin-out"]))])
NEVER_BUILT = b"\xee" * 32


def scan_confirmations(chain: Chain, txid: bytes) -> int:
    for height, block in reversed(list(chain.iter_active_blocks())):
        if any(tx.txid == txid for tx in block.transactions):
            return chain.height + 1 - height
    return 0


def scan_find(chain: Chain, txid: bytes):
    for height, block in reversed(list(chain.iter_active_blocks())):
        for tx in block.transactions:
            if tx.txid == txid:
                return tx, height
    return None


def assert_index_matches_scan(chain: Chain, txids) -> None:
    for txid in txids:
        assert chain.confirmations(txid) == scan_confirmations(chain, txid)
        assert chain.find_transaction(txid) == scan_find(chain, txid)


def _coinbase(height: int, tag: int, value: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(tag)]))],
        outputs=[TxOutput(value=value, script_pubkey=Script([b"\x01"]))])


def _twin_spend(height: int, tag: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TWIN.txid, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script(
            [encode_number(height), encode_number(tag)]))])


class Tree:
    """The blocks built so far, with parents, and the twin's state along
    each branch."""

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        genesis = chain.genesis
        self.blocks: list[Block] = [genesis]
        self.heights = {genesis.hash: 0}
        # block hash -> whether the twin's output is unspent at that block
        self.twin_live = {genesis.hash: False}
        self.txids = {NEVER_BUILT, TWIN.txid,
                      *(tx.txid for tx in genesis.transactions)}

    def build(self, parent_pick: int, twin: bool, greedy: bool,
              tag: int) -> Block:
        parent = self.blocks[parent_pick % len(self.blocks)]
        height = self.heights[parent.hash] + 1
        live = self.twin_live[parent.hash]
        transactions = [_coinbase(height, tag, COINBASE_REWARD
                                  + greedy)]
        if twin and live:
            transactions.append(_twin_spend(height, tag))
            live = False
        elif twin and not greedy:
            transactions[0] = TWIN
            live = True
        block = Block.assemble(prev_hash=parent.hash,
                               timestamp=float(height * 1000 + tag),
                               transactions=transactions)
        self.heights[block.hash] = height
        self.twin_live[block.hash] = live
        self.txids.update(tx.txid for tx in transactions)
        return block

    def feed(self, block: Block) -> None:
        try:
            self.chain.add_block(block)
        except ValidationError:
            return  # invalid when connected: never stored
        if self.chain.contains(block.hash) and block not in self.blocks:
            self.blocks.append(block)


steps = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.booleans(),
              st.sampled_from([False, False, False, True]),
              st.integers(0, 3), st.booleans()),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_index_answers_equal_the_chain_walk(steps):
    chain = Chain(PARAMS)
    tree = Tree(chain)
    for parent_pick, twin, greedy, tag, ask in steps:
        tree.feed(tree.build(parent_pick, twin, greedy, tag))
        if ask:
            assert_index_matches_scan(chain, tree.txids)
    assert_index_matches_scan(chain, tree.txids)
    snapshot = io.StringIO()
    save_chain(chain, snapshot)
    tip = chain.tip.hash
    chain.reset()
    assert_index_matches_scan(chain, tree.txids)
    load_chain(io.StringIO(snapshot.getvalue()), chain)
    assert chain.tip.hash == tip
    assert_index_matches_scan(chain, tree.txids)


def test_a_twice_confirmed_txid_answers_for_its_highest_copy():
    chain = Chain(PARAMS)
    tree = Tree(chain)
    # Twin at 1, its spend at 2, the twin again at 3, then a filler at 4.
    for twin in (True, True, True, False):
        tree.feed(tree.build(len(tree.blocks) - 1, twin, False, 0))
    assert chain.height == 4
    assert [height for height, block in chain.iter_active_blocks()
            if TWIN in block.transactions] == [1, 3]
    assert chain.confirmations(TWIN.txid) == 2
    assert chain.find_transaction(TWIN.txid) == (TWIN, 3)
    # A longer branch off height 2 drops the second copy: the first
    # answers again.
    fork = tree.blocks[2]
    for tag in (1, 2, 3):
        tree.feed(tree.build(tree.blocks.index(fork), False, False, tag))
        fork = tree.blocks[-1]
    assert chain.height == 5 and chain.tip.hash == fork.hash
    assert chain.confirmations(TWIN.txid) == 5
    assert chain.find_transaction(TWIN.txid) == (TWIN, 1)
    assert_index_matches_scan(chain, tree.txids)
