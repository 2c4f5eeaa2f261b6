"""The SPV wallet: proven balances, reordering, and offer construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.light.wallet import LightWallet
from repro.script import builder
from repro.script.script import Script, encode_number
from tests.oracles.coin_selection_reference import (
    assert_selection_matches,
    light_wallet_spendable,
    spendable,
)
from tests.oracles.fees import paying_fee


@pytest.fixture
def wallet():
    return LightWallet(KeyPair.generate(random.Random(0xBC)))


def pay_to(wallet, values, height=1):
    """A coinbase-style tx paying ``values`` to the wallet."""
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height)]))],
        outputs=[TxOutput(value=v,
                          script_pubkey=builder.p2pkh_locking(
                              wallet.pubkey_hash))
                 for v in values],
    )


# -- credits and debits -------------------------------------------------------

def test_credit_and_balance(wallet):
    tx = pay_to(wallet, [100, 250])
    assert wallet.apply_confirmed_tx(tx) == 350
    assert wallet.balance == 350
    assert len(spendable(wallet)) == 2


def test_apply_is_idempotent(wallet):
    tx = pay_to(wallet, [100])
    assert wallet.apply_confirmed_tx(tx) == 100
    assert wallet.apply_confirmed_tx(tx) == 0
    assert wallet.balance == 100


def test_foreign_outputs_ignored(wallet):
    other = LightWallet(KeyPair.generate(random.Random(1)))
    tx = pay_to(other, [500])
    assert wallet.apply_confirmed_tx(tx) == 0
    assert wallet.balance == 0


def test_spend_debits(wallet):
    funding = pay_to(wallet, [300])
    wallet.apply_confirmed_tx(funding)
    spend = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=funding.txid, index=0))],
        outputs=[TxOutput(value=300, script_pubkey=Script())],
    )
    assert wallet.apply_confirmed_tx(spend) == -300
    assert wallet.balance == 0


def test_out_of_order_spend_then_fund(wallet):
    """The reordered-proof case: the spender lands before its funding.

    Without the spent-outpoint tombstone the late funding credit would
    resurrect a dead coin, which coin selection then double-spends into
    a permanently-orphaned offer.
    """
    funding = pay_to(wallet, [300, 200])
    spend = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=funding.txid, index=0))],
        outputs=[TxOutput(value=300, script_pubkey=Script())],
    )
    assert wallet.apply_confirmed_tx(spend) == 0  # debit of an unknown coin
    assert wallet.apply_confirmed_tx(funding) == 200  # only output 1 credits
    assert wallet.balance == 200
    assert [v for _, v in spendable(wallet)] == [200]


def test_change_output_credits_back(wallet):
    funding = pay_to(wallet, [300])
    wallet.apply_confirmed_tx(funding)
    spend = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=funding.txid, index=0))],
        outputs=[
            TxOutput(value=100, script_pubkey=Script()),
            TxOutput(value=200,
                     script_pubkey=builder.p2pkh_locking(wallet.pubkey_hash)),
        ],
    )
    assert wallet.apply_confirmed_tx(spend) == -100
    assert wallet.balance == 200


# -- coin selection and reservations ------------------------------------------

def test_insufficient_funds(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [100]))
    with pytest.raises(ValidationError, match="insufficient funds"):
        wallet.create_key_release_offer(
            rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
            amount=500, refund_locktime=10,
        )


def test_offer_reserves_inputs(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [250, 250]))
    offer = wallet.create_key_release_offer(
        rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
        amount=250, refund_locktime=10,
    )
    assert wallet.balance == 250  # the spent coin is reserved
    with pytest.raises(ValidationError):
        wallet.create_key_release_offer(
            rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
            amount=500, refund_locktime=10,
        )
    wallet.release_pending(offer.transaction)
    assert wallet.balance == 500


def test_confirmed_spend_clears_reservation(wallet):
    funding = pay_to(wallet, [250])
    wallet.apply_confirmed_tx(funding)
    offer = wallet.create_key_release_offer(
        rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
        amount=250, refund_locktime=10,
    )
    wallet.apply_confirmed_tx(offer.transaction)
    assert wallet.balance == 0
    assert not wallet._pending_spends


# -- offers and refunds -------------------------------------------------------

def test_offer_requires_positive_amount_and_locktime(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [250]))
    with pytest.raises(ValidationError):
        wallet.create_key_release_offer(
            rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
            amount=0, refund_locktime=10,
        )
    with pytest.raises(ValidationError):
        wallet.create_key_release_offer(
            rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
            amount=100, refund_locktime=0,
        )


def test_refund_reclaims_offer(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [250]))
    offer = wallet.create_key_release_offer(
        rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
        amount=250, refund_locktime=10,
    )
    refund = wallet.refund_key_release(offer)
    assert refund.locktime == 10
    assert refund.inputs[0].outpoint == offer.outpoint
    assert refund.outputs[0].value == 250
    wallet.apply_confirmed_tx(offer.transaction)
    wallet.apply_confirmed_tx(refund)
    assert wallet.balance == 250


def test_refund_fee_cannot_consume_offer(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [250]))
    offer = wallet.create_key_release_offer(
        rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
        amount=250, refund_locktime=10,
    )
    with pytest.raises(ValidationError), paying_fee(wallet, 250):
        wallet.refund_key_release(offer)


def test_announcement_spends_one_coin(wallet):
    wallet.apply_confirmed_tx(pay_to(wallet, [250, 250]))
    tx = wallet.create_announcement(b"BCWIP1-payload")
    assert len(tx.inputs) == 1
    assert tx.outputs[0].value == 0  # the OP_RETURN carrier
    # Change returns the full coin to the wallet.
    assert any(o.value == 250 for o in tx.outputs[1:])


# -- the ranked coin view against the seed's filter-sort ----------------------

class RankedLightWalletMachine(RuleBasedStateMachine):
    """Proven credits of many equal-valued coins, offers held, released
    and confirmed, duplicate and reordered proofs: :func:`spendable` and
    the coins ``_select_coins`` picks stay those of the seed's per-call
    filter-then-sort."""

    @initialize()
    def setup(self) -> None:
        self.wallet = LightWallet(KeyPair.generate(random.Random(0x20)))
        self.height = 0
        self.held: list[Transaction] = []     # built, reserved, unproven
        self.delayed: list[Transaction] = []  # proofs still in flight
        self.applied: list[Transaction] = []

    def _apply(self, tx: Transaction) -> None:
        self.wallet.apply_confirmed_tx(tx)
        self.applied.append(tx)

    @rule(values=st.lists(st.sampled_from([100, 100, 100, 250, 1_000]),
                          min_size=1, max_size=8),
          delay=st.booleans(), spend_first=st.booleans())
    def credit(self, values, delay: bool, spend_first: bool) -> None:
        """A funding proof; ``spend_first`` lands a spend of its first
        output ahead of it (the tombstone case)."""
        self.height += 1
        funding = pay_to(self.wallet, values, height=self.height)
        if spend_first:
            self._apply(Transaction(
                inputs=[TxInput(outpoint=OutPoint(txid=funding.txid, index=0))],
                outputs=[TxOutput(value=values[0], script_pubkey=Script())],
            ))
        if delay:
            self.delayed.append(funding)
        else:
            self._apply(funding)

    @rule(choice=st.integers(min_value=0, max_value=99))
    def deliver_delayed(self, choice: int) -> None:
        if self.delayed:
            self._apply(self.delayed.pop(choice % len(self.delayed)))

    @rule(choice=st.integers(min_value=0, max_value=99))
    def deliver_duplicate(self, choice: int) -> None:
        if self.applied:
            tx = self.applied[choice % len(self.applied)]
            assert self.wallet.apply_confirmed_tx(tx) == 0

    @rule(amount=st.sampled_from([50, 100, 101, 350, 2_000]),
          fee=st.sampled_from([0, 3]), confirm=st.booleans())
    def offer(self, amount: int, fee: int, confirm: bool) -> None:
        try:
            with paying_fee(self.wallet, fee):
                tx = self.wallet.create_key_release_offer(
                    rsa_pubkey=b"\x01" * 16, gateway_pubkey_hash=b"\x02" * 20,
                    amount=amount, refund_locktime=10,
                ).transaction
        except ValidationError as exc:
            # The invariant re-checks the shortfall amount by amount.
            assert "insufficient funds" in str(exc)
            return
        if confirm:
            self._apply(tx)
        else:
            self.held.append(tx)

    @rule(choice=st.integers(min_value=0, max_value=99),
          confirm=st.booleans())
    def settle_held(self, choice: int, confirm: bool) -> None:
        if self.held:
            tx = self.held.pop(choice % len(self.held))
            if confirm:
                self._apply(tx)
            else:
                self.wallet.release_pending(tx)

    @invariant()
    def ranks_and_selects_as_the_seed_scan(self) -> None:
        assert_selection_matches(self.wallet,
                                 light_wallet_spendable(self.wallet))


TestRankedLightWallet = RankedLightWalletMachine.TestCase
TestRankedLightWallet.settings = settings(max_examples=40,
                                          stateful_step_count=30,
                                          deadline=None)
