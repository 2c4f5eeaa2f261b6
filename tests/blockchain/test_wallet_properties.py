"""Property-based tests on wallet accounting and value conservation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.blockchain.block import Block
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.wallet import Wallet
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.coin_selection_reference import (
    assert_selection_matches,
    full_wallet_spendable,
    spendable,
)
from tests.oracles.fees import paying_fee


def fresh_stack(seed: int):
    rng = random.Random(seed)
    node = FullNode(ChainParams(coinbase_maturity=1), "prop")
    alice = Wallet(node.chain, KeyPair.generate(rng))
    alice.watch_chain()
    bob = Wallet(node.chain, KeyPair.generate(rng))
    bob.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=alice.pubkey_hash)
    for i in range(4):
        miner.mine_and_connect(float(i))
    return node, alice, bob, miner


@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1,
                max_size=8),
       st.integers(min_value=0, max_value=10**4))
@settings(max_examples=25, deadline=None)
def test_value_conservation_across_payments(amounts, fee):
    """Whatever sequence of payments is mined, total on-chain value is
    exactly coinbase issuance (fees recirculate to the miner)."""
    node, alice, bob, miner = fresh_stack(1)
    sent = 0
    for amount in amounts:
        try:
            with paying_fee(alice, fee):
                tx = alice.create_payment(bob.pubkey_hash, amount)
        except ValidationError:
            break  # out of spendable coins: acceptable
        if not node.submit_transaction(tx).accepted:
            alice.release_pending(tx)
            break
        sent += amount
    miner.mine_and_connect(100.0)
    total_issued = node.chain.height * COINBASE_REWARD
    assert node.chain.utxos.total_value() == total_issued
    assert bob.balance == sent


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=15, deadline=None)
def test_fanout_value_exact(count):
    node, alice, bob, miner = fresh_stack(2)
    tx = alice.create_fanout(bob.pubkey_hash, 100, count)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(50.0)
    assert bob.balance == 100 * count
    assert len(spendable(bob)) == count


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=10, deadline=None)
def test_balance_never_negative_and_never_inflates(spend_rounds):
    node, alice, bob, miner = fresh_stack(3)
    issued_before = node.chain.height * COINBASE_REWARD
    for i in range(spend_rounds):
        try:
            tx = alice.create_payment(bob.pubkey_hash, 10**9)
        except ValidationError:
            break
        node.submit_transaction(tx)
        miner.mine_and_connect(10.0 + i)
    assert alice.balance >= 0
    assert bob.balance >= 0
    issued_now = node.chain.height * COINBASE_REWARD
    # alice mined every block, so alice + bob <= everything ever issued.
    assert alice.balance + bob.balance <= issued_now
    assert issued_now >= issued_before


def test_wallet_sees_spend_of_its_coin_by_other_software():
    """A spend built outside this wallet instance still updates it."""
    node, alice, bob, miner = fresh_stack(4)
    # A second wallet instance over the same key ("other software").
    clone = Wallet(node.chain, alice.keypair)
    clone.refresh_from_utxo_set()
    tx = clone.create_payment(bob.pubkey_hash, 123)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(60.0)
    # The original wallet observed the block and dropped the spent coin.
    spent_outpoints = {i.outpoint for i in tx.inputs}
    assert not (spent_outpoints & set(alice._owned))


def test_refresh_after_external_history():
    node, alice, bob, miner = fresh_stack(5)
    tx = alice.create_payment(bob.pubkey_hash, 777)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(70.0)
    late = Wallet(node.chain, bob.keypair)
    late.refresh_from_utxo_set()
    assert late.balance == 777


# -- the ranked coin view against the seed's scan-filter-sort ------------------

class RankedWalletMachine(RuleBasedStateMachine):
    """A wallet whose coin set changes every way it can -- coinbases that
    mature, fan-outs of equal-valued coins, spends confirmed in blocks,
    reservations made and released, reorgs with and without a refresh --
    must rank and select exactly as the seed's per-call scan does."""

    @initialize()
    def setup(self) -> None:
        rng = random.Random(0x20)
        self.node = FullNode(ChainParams(coinbase_maturity=2), "ranked")
        self.alice = Wallet(self.node.chain, KeyPair.generate(rng))
        self.alice.watch_chain()
        self.bob_hash = KeyPair.generate(rng).pubkey_hash
        self.miners = {
            to_alice: Miner(chain=self.node.chain, mempool=self.node.mempool,
                            reward_pubkey_hash=reward)
            for to_alice, reward in ((True, self.alice.pubkey_hash),
                                     (False, self.bob_hash))
        }
        self.clock = 0.0
        self.held: list[Transaction] = []  # built, reserved, not submitted
        for _ in range(4):
            self.mine(to_alice=True)

    def _spend(self, make, then: str, to_alice: bool) -> None:
        """Build a spend, then hold it, submit it, or submit and mine it."""
        try:
            tx = make()
        except ValidationError as exc:
            # The invariant re-checks the shortfall amount by amount.
            assert "insufficient funds" in str(exc)
            return
        if then == "hold":
            self.held.append(tx)
        elif not self.node.submit_transaction(tx).accepted:
            self.alice.release_pending(tx)
        elif then == "confirm":
            self.mine(to_alice)

    @rule(to_alice=st.booleans())
    def mine(self, to_alice: bool) -> None:
        self.clock += 1.0
        self.miners[to_alice].mine_and_connect(self.clock)

    @rule(count=st.integers(min_value=2, max_value=12),
          amount=st.sampled_from([1_000, 1_000, 2_500]),
          fee=st.sampled_from([0, 0, 7]),
          then=st.sampled_from(["hold", "submit", "confirm"]),
          to_alice=st.booleans())
    def fan_out_to_self(self, count, amount, fee, then, to_alice) -> None:
        def fan_out():
            with paying_fee(self.alice, fee):
                return self.alice.create_fanout(
                    self.alice.pubkey_hash, amount, count)
        self._spend(fan_out, then, to_alice)

    @rule(amount=st.sampled_from([1_000, 2_000, 3_333, None]),
          then=st.sampled_from(["hold", "submit", "confirm"]),
          to_alice=st.booleans())
    def pay_bob(self, amount, then, to_alice) -> None:
        """``None`` sweeps: every spendable coin in, no change out."""
        if amount is None:
            amount = sum(v for _, v in spendable(self.alice)) or 1
        self._spend(lambda: self.alice.create_payment(self.bob_hash, amount),
                    then, to_alice)

    @rule(choice=st.integers(min_value=0, max_value=99))
    def release_held(self, choice: int) -> None:
        if self.held:
            self.alice.release_pending(self.held.pop(choice % len(self.held)))

    @rule(depth=st.integers(min_value=1, max_value=3),
          refresh=st.booleans())
    def reorg(self, depth: int, refresh: bool) -> None:
        """Replace the top ``depth`` blocks by ``depth + 1`` empty ones."""
        chain = self.node.chain
        fork_height = max(chain.height - depth, 0)
        parent = chain.block_at(fork_height).hash
        for height in range(fork_height + 1, chain.height + 2):
            self.clock += 1.0
            coinbase = Transaction(
                inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                                script_sig=Script([encode_number(height),
                                                   encode_number(7)]))],
                outputs=[TxOutput(value=COINBASE_REWARD,
                                  script_pubkey=p2pkh_locking(self.bob_hash))],
            )
            block = Block.assemble(prev_hash=parent, timestamp=self.clock,
                                   transactions=[coinbase])
            result = chain.add_block(block)
            parent = block.hash
        assert result.reorged
        # Pool entries may spend coins the reorg took away; start clean.
        for tx in list(self.node.mempool.transactions()):
            self.node.mempool.remove(tx.txid)
        if refresh:
            self.alice.refresh_from_utxo_set()

    @rule()
    def refresh(self) -> None:
        self.alice.refresh_from_utxo_set()

    @invariant()
    def ranks_and_selects_as_the_seed_scan(self) -> None:
        assert_selection_matches(self.alice,
                                 full_wallet_spendable(self.alice))


TestRankedWallet = RankedWalletMachine.TestCase
TestRankedWallet.settings = settings(max_examples=40, stateful_step_count=30,
                                     deadline=None)


def test_ranked_view_follows_a_spend_that_a_reorg_takes_back():
    """The two drops no ordinary run exercises.  A sweep confirmed in a
    block that pays the wallet nothing removes coins without adding any;
    when a reorg then disconnects that block the coins are unspent again
    but no longer the wallet's to see -- until a refresh re-reads the UTXO
    set, which must surface them."""
    machine = RankedWalletMachine()
    machine.setup()
    alice = machine.alice
    swept = spendable(alice)
    assert len(swept) >= 2
    machine.pay_bob(amount=None, then="confirm", to_alice=False)
    assert not set(swept) & set(spendable(alice))
    machine.reorg(depth=1, refresh=False)
    machine.ranks_and_selects_as_the_seed_scan()
    assert not set(swept) & set(spendable(alice))
    machine.refresh()
    machine.ranks_and_selects_as_the_seed_scan()
    assert set(swept) <= set(spendable(alice))
