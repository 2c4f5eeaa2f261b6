"""Wallets: key management, UTXO tracking, transaction construction.

Every BcWAN actor (gateway, recipient, master) holds a wallet.  Beyond
plain payments it builds the three transaction shapes the protocol needs:

* OP_RETURN *announcements* carrying a gateway's IP address (section 4.3);
* the *key-release offer* locking payment to the revelation of an
  ephemeral RSA-512 private key (Listing 1, step 9 of Fig. 3);
* the *claim* and *refund* spends of such an offer (step 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.blockchain.chain import Chain
from repro.blockchain.transaction import (
    OutPoint,
    SEQUENCE_FINAL,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script import builder
from repro.script.script import Script

__all__ = ["SingleKeyWallet", "Wallet", "KeyReleaseOffer"]


@dataclass(frozen=True)
class KeyReleaseOffer:
    """A funded Listing-1 output, as seen by both gateway and recipient."""

    transaction: Transaction
    output_index: int
    rsa_pubkey: bytes
    gateway_pubkey_hash: bytes
    buyer_pubkey_hash: bytes
    refund_locktime: int

    @property
    def outpoint(self) -> OutPoint:
        return OutPoint(txid=self.transaction.txid, index=self.output_index)

    @property
    def amount(self) -> int:
        return self.transaction.outputs[self.output_index].value


class SingleKeyWallet:
    """Spend construction for one key pair, over a coin set a subclass feeds.

    Holds the key, the owned-coin map, and the mempool-pending
    reservations (so two transactions are never built over the same
    coin), and builds every transaction shape of the protocol.  Where
    the coins come from and which of them are spendable is the
    subclass's business: :class:`Wallet` reads a chain view,
    :class:`repro.light.wallet.LightWallet` SPV-proven transactions.

    Subclasses change the coin set through :meth:`_credit` and
    :meth:`_debit`, which keep the ranked view of it honest.
    """

    # The fee every spend leaves to the miner: BcWAN's Multichain charges
    # none.  A test that needs a fee-paying spend sets it on the instance.
    FEE = 0

    def __init__(self, keypair: KeyPair) -> None:
        self.keypair = keypair
        self._owned: dict[OutPoint, int] = {}  # outpoint -> value
        self._pending_spends: set[OutPoint] = set()
        # ``_owned`` largest-first, ranked once per change of the coin set
        # instead of once per spend; None when stale.
        self._ranked: Optional[list[tuple[OutPoint, int]]] = None

    # -- identity -------------------------------------------------------------

    @property
    def address(self) -> str:
        return self.keypair.address

    @property
    def pubkey_hash(self) -> bytes:
        return self.keypair.pubkey_hash

    @property
    def pubkey_bytes(self) -> bytes:
        return self.keypair.public_key.to_bytes()

    # -- coins ------------------------------------------------------------------

    @property
    def balance(self) -> int:
        return sum(
            value for outpoint, value in self._owned.items()
            if outpoint not in self._pending_spends
        )

    def _credit(self, outpoint: OutPoint, value: int) -> None:
        """Own ``outpoint`` from now on."""
        self._owned[outpoint] = value
        self._ranked = None

    def _debit(self, outpoint: OutPoint) -> Optional[int]:
        """``outpoint`` was spent on chain: forget it and any reservation
        of it.  Returns its value if it was ours."""
        self._pending_spends.discard(outpoint)
        value = self._owned.pop(outpoint, None)
        if value is not None:
            self._ranked = None
        return value

    def _is_spendable(self, outpoint: OutPoint) -> bool:
        """May this owned coin be spent now?  Subclasses narrow it."""
        return outpoint not in self._pending_spends

    def _iter_spendable(self) -> Iterator[tuple[OutPoint, int]]:
        """Spendable coins largest-first, equal values in ``_owned`` order
        (the sort is stable), tested one at a time as the caller advances."""
        if self._ranked is None:
            self._ranked = sorted(self._owned.items(),
                                  key=lambda item: item[1], reverse=True)
        return (coin for coin in self._ranked if self._is_spendable(coin[0]))

    def _select_coins(self, amount: int) -> tuple[list[tuple[OutPoint, int]], int]:
        """Greedy largest-first coin selection covering ``amount``."""
        selected = []
        total = 0
        for outpoint, value in self._iter_spendable():
            selected.append((outpoint, value))
            total += value
            if total >= amount:
                return selected, total
        raise ValidationError(
            f"insufficient funds: need {amount}, have {total} spendable"
        )

    def release_pending(self, tx: Transaction) -> None:
        """Un-reserve a built transaction's inputs (e.g. broadcast failed)."""
        for tx_input in tx.inputs:
            self._pending_spends.discard(tx_input.outpoint)

    # -- transaction construction ------------------------------------------------

    def sign_input(self, tx: Transaction, input_index: int,
                   locking_script: Script) -> bytes:
        """Compact ECDSA signature for one input under SIGHASH_ALL."""
        digest = tx.sighash(input_index, locking_script)
        return self.keypair.sign(digest).to_bytes()

    def _finalize_p2pkh_inputs(self, tx: Transaction) -> Transaction:
        """Fill every input's scriptSig assuming they all spend our P2PKH."""
        locking = builder.p2pkh_locking(self.pubkey_hash)
        for index in range(len(tx.inputs)):
            signature = self.sign_input(tx, index, locking)
            tx = tx.with_input_script(
                index, builder.p2pkh_unlocking(signature, self.pubkey_bytes)
            )
        return tx

    def _build_spend(self, outputs: list[TxOutput]) -> Transaction:
        amount = sum(output.value for output in outputs) + self.FEE
        coins, total = self._select_coins(amount)
        change = total - amount
        final_outputs = list(outputs)
        if change > 0:
            final_outputs.append(TxOutput(
                value=change,
                script_pubkey=builder.p2pkh_locking(self.pubkey_hash),
            ))
        tx = Transaction(
            inputs=[TxInput(outpoint=outpoint) for outpoint, _ in coins],
            outputs=final_outputs,
        )
        tx = self._finalize_p2pkh_inputs(tx)
        for outpoint, _ in coins:
            self._pending_spends.add(outpoint)
        return tx

    def _announcement(self, payload: bytes) -> Transaction:
        return self._build_spend(
            [TxOutput(value=0, script_pubkey=builder.op_return(payload))])

    def _key_release_offer(self, rsa_pubkey: bytes,
                           gateway_pubkey_hash: bytes, amount: int,
                           refund_locktime: int) -> KeyReleaseOffer:
        if amount <= 0:
            raise ValidationError(f"offer amount must be positive: {amount}")
        locking = builder.ephemeral_key_release(
            rsa_pubkey=rsa_pubkey,
            gateway_pubkey_hash=gateway_pubkey_hash,
            buyer_pubkey_hash=self.pubkey_hash,
            refund_locktime=refund_locktime,
        )
        tx = self._build_spend([TxOutput(value=amount, script_pubkey=locking)])
        return KeyReleaseOffer(
            transaction=tx,
            output_index=0,
            rsa_pubkey=rsa_pubkey,
            gateway_pubkey_hash=gateway_pubkey_hash,
            buyer_pubkey_hash=self.pubkey_hash,
            refund_locktime=refund_locktime,
        )

    def _spend_key_release(self, offer: KeyReleaseOffer,
                           unlocking: Callable[[bytes], Script],
                           sequence: int = SEQUENCE_FINAL,
                           locktime: int = 0) -> Transaction:
        """Spend ``offer`` to this wallet through one Listing-1 branch;
        ``unlocking`` turns our signature into that branch's scriptSig."""
        value = offer.amount - self.FEE
        if value <= 0:
            raise ValidationError(
                f"fee {self.FEE} consumes the whole offer of {offer.amount}"
            )
        tx = Transaction(
            inputs=[TxInput(outpoint=offer.outpoint, sequence=sequence)],
            outputs=[TxOutput(
                value=value,
                script_pubkey=builder.p2pkh_locking(self.pubkey_hash),
            )],
            locktime=locktime,
        )
        locking = builder.ephemeral_key_release(
            rsa_pubkey=offer.rsa_pubkey,
            gateway_pubkey_hash=offer.gateway_pubkey_hash,
            buyer_pubkey_hash=offer.buyer_pubkey_hash,
            refund_locktime=offer.refund_locktime,
        )
        return tx.with_input_script(
            0, unlocking(self.sign_input(tx, 0, locking)))

    def _key_release_refund(self, offer: KeyReleaseOffer) -> Transaction:
        return self._spend_key_release(
            offer,
            lambda signature: builder.key_release_refund(
                signature, self.pubkey_bytes),
            sequence=SEQUENCE_FINAL - 1, locktime=offer.refund_locktime,
        )


class Wallet(SingleKeyWallet):
    """A single-key wallet bound to one chain view.

    The wallet watches connected blocks for outputs paying its address and
    for spends of its coins; register it via :meth:`watch_chain` or call
    :meth:`scan_block` manually.
    """

    def __init__(self, chain: Chain, keypair: KeyPair) -> None:
        super().__init__(keypair)
        self.chain = chain

    # -- balance tracking -------------------------------------------------------

    def watch_chain(self) -> None:
        """Subscribe to block-connect events and scan existing history."""
        for _height, block in self.chain.iter_active_blocks():
            self.scan_block(block)
        self.chain.add_connect_listener(lambda block, height: self.scan_block(block))

    def scan_block(self, block) -> None:
        """Update owned coins from a connected block."""
        my_script = builder.p2pkh_locking(self.pubkey_hash).to_bytes()
        for tx in block.transactions:
            for tx_input in tx.inputs:
                self._debit(tx_input.outpoint)
            for outpoint, output in zip(tx.outpoints, tx.outputs):
                if output.script_pubkey.to_bytes() == my_script:
                    if self.chain.utxos.get(outpoint) is not None:
                        self._credit(outpoint, output.value)

    def refresh_from_utxo_set(self) -> None:
        """Rebuild ownership from the chain's UTXO set (e.g. after reorg)."""
        my_script = builder.p2pkh_locking(self.pubkey_hash).to_bytes()
        self._owned = {
            outpoint: entry.value
            for outpoint, entry in self.chain.utxos.items()
            if entry.output.script_pubkey.to_bytes() == my_script
        }
        self._ranked = None
        self._pending_spends &= set(self._owned)

    def _is_spendable(self, outpoint: OutPoint) -> bool:
        """Unreserved, still in the UTXO set, and mature if a coinbase."""
        if not super()._is_spendable(outpoint):
            return False
        entry = self.chain.utxos.get(outpoint)
        if entry is None:
            return False
        return not (entry.is_coinbase
                    and self.chain.height - entry.height
                    < self.chain.params.coinbase_maturity)

    # -- transaction construction ------------------------------------------------
    # Defined here, not hoisted: the benchmark's tracer finds them through
    # ``Wallet.__dict__``.

    def create_payment(self, to_pubkey_hash: bytes,
                       amount: int) -> Transaction:
        """A plain P2PKH payment."""
        if amount <= 0:
            raise ValidationError(f"payment amount must be positive: {amount}")
        return self._build_spend(
            [TxOutput(value=amount,
                      script_pubkey=builder.p2pkh_locking(to_pubkey_hash))])

    def create_fanout(self, to_pubkey_hash: bytes, amount: int,
                      count: int) -> Transaction:
        """Pay ``count`` equal outputs of ``amount`` to one address.

        Bootstrap helper: an actor funded with many small coins can issue
        many concurrent key-release offers without waiting for change to
        confirm.
        """
        if amount <= 0 or count <= 0:
            raise ValidationError(
                f"fanout needs positive amount and count, got "
                f"{amount} x {count}"
            )
        outputs = [
            TxOutput(value=amount,
                     script_pubkey=builder.p2pkh_locking(to_pubkey_hash))
            for _ in range(count)
        ]
        return self._build_spend(outputs)

    def create_announcement(self, payload: bytes) -> Transaction:
        """An OP_RETURN data-carrier transaction (gateway IP directory)."""
        return self._announcement(payload)

    def create_key_release_offer(self, rsa_pubkey: bytes,
                                 gateway_pubkey_hash: bytes,
                                 amount: int,
                                 refund_locktime: Optional[int] = None
                                 ) -> KeyReleaseOffer:
        """Step 9 of Fig. 3: lock ``amount`` to the ephemeral key revelation.

        The refund path defaults to the paper's ``block_height + 100``.
        """
        if refund_locktime is None:
            refund_locktime = self.chain.height + self.chain.params.locktime_grace
        return self._key_release_offer(rsa_pubkey, gateway_pubkey_hash,
                                       amount, refund_locktime)

    def claim_key_release(self, offer: KeyReleaseOffer,
                          rsa_private_key: bytes) -> Transaction:
        """Step 10 of Fig. 3: spend the offer by revealing ``eSk``.

        The output pays this wallet ("the output ... should be intended to
        the gateway itself", paper step 10).
        """
        return self._spend_key_release(
            offer,
            lambda signature: builder.key_release_claim(
                signature, self.pubkey_bytes, rsa_private_key),
        )

    def refund_key_release(self, offer: KeyReleaseOffer) -> Transaction:
        """Reclaim an unclaimed offer after its locktime expires."""
        return self._key_release_refund(offer)
