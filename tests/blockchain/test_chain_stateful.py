"""Stateful property testing of the chain: forks, reorgs, invariants.

A hypothesis rule machine grows a block DAG by extending arbitrary known
blocks (building forks at will) and checks after every step that the
chain's bookkeeping holds:

* the active chain is the branch with the most cumulative work,
  first-seen winning ties;
* the UTXO set equals the set obtained by replaying the active chain
  from genesis;
* every active block's parent is the previous active block.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.utxo import UTXOSet
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.utxo_reference import apply_transaction


def make_coinbase(height: int, tag: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(tag)]))],
        outputs=[TxOutput(value=50,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )


class ChainMachine(RuleBasedStateMachine):

    @initialize()
    def setup(self) -> None:
        self.chain = Chain(ChainParams())
        # hash -> height, for building children of any known block.
        self.known: dict[bytes, int] = {self.chain.genesis.hash: 0}
        self.tag = 0

    @rule(parent_choice=st.integers(min_value=0, max_value=10**6))
    def extend_some_block(self, parent_choice: int) -> None:
        parents = sorted(self.known)
        parent_hash = parents[parent_choice % len(parents)]
        height = self.known[parent_hash] + 1
        self.tag += 1
        block = Block.assemble(
            prev_hash=parent_hash,
            timestamp=float(self.tag),
            transactions=[make_coinbase(height, self.tag)],
        )
        result = self.chain.add_block(block)
        assert result.status in ("active", "side", "duplicate")
        self.known[block.hash] = height

    @rule()
    def extend_tip(self) -> None:
        self.extend_some_block(parent_choice=len(self.known) - 1
                               if self.chain.tip.hash not in self.known
                               else sorted(self.known).index(self.chain.tip.hash))

    @invariant()
    def active_chain_is_linked(self) -> None:
        previous = None
        for height, block in self.chain.iter_active_blocks():
            if previous is not None:
                assert block.header.prev_hash == previous.hash
            assert self.chain.is_active(block.hash)
            record = self.chain.record_for(block.hash)
            assert record is not None and record.height == height
            previous = block

    @invariant()
    def tip_has_maximal_height(self) -> None:
        # Constant work per block: longest chain must win (ties allowed).
        best = max(self.known.values()) if self.known else 0
        assert self.chain.height >= best - 0  # tip can't be shorter than
        # any branch we successfully added... ties break first-seen, so
        # the tip height equals the max known height.
        assert self.chain.height == best

    @invariant()
    def utxo_set_matches_replay(self) -> None:
        replay = UTXOSet()
        for height, block in self.chain.iter_active_blocks(start_height=1):
            for tx in block.transactions:
                apply_transaction(replay, tx, height)
        assert dict(replay.items()) == dict(self.chain.utxos.items())


ChainMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
)
TestChainMachine = ChainMachine.TestCase
