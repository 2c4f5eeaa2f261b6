"""A chain-state-free wallet for SPV clients.

:class:`LightWallet` builds transactions with the same
:class:`~repro.blockchain.wallet.SingleKeyWallet` core as the full-node
:class:`~repro.blockchain.wallet.Wallet` but owns no
:class:`~repro.blockchain.chain.Chain`: its coin set is fed exclusively by SPV-proven transactions
(:meth:`apply_confirmed_tx`), so a light recipient can fund key-release
offers knowing only headers and the handful of transactions that touch
its address.  Refund locktimes must therefore be supplied explicitly —
the caller derives them from its header-chain tip.

Coinbase maturity never applies: block rewards pay miners, and a light
device is by definition not one.
"""

from __future__ import annotations

from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.wallet import KeyReleaseOffer, SingleKeyWallet
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script import builder

__all__ = ["LightWallet"]


class LightWallet(SingleKeyWallet):
    """A single-key wallet whose balance is proven, not validated."""

    def __init__(self, keypair: KeyPair) -> None:
        super().__init__(keypair)
        self._applied_txids: set[bytes] = set()
        # Outpoints ever seen spent.  Proof pushes can arrive reordered
        # (independent WAN latency per message), so a spend may be
        # applied before the transaction that funded it — the tombstone
        # keeps the late credit from resurrecting a dead coin.
        self._spent: set[OutPoint] = set()

    # -- balance tracking -------------------------------------------------------

    def apply_confirmed_tx(self, tx: Transaction) -> int:
        """Absorb one SPV-proven transaction; returns the net value change.

        The caller is responsible for only feeding transactions whose
        inclusion proof verified against its header chain — the wallet
        trusts its input completely (that *is* the SPV security model).
        Idempotent per txid, so duplicate proofs are harmless.
        """
        if tx.txid in self._applied_txids:
            return 0
        self._applied_txids.add(tx.txid)
        delta = 0
        my_script = builder.p2pkh_locking(self.pubkey_hash).to_bytes()
        for tx_input in tx.inputs:
            self._spent.add(tx_input.outpoint)
            value = self._debit(tx_input.outpoint)
            if value is not None:
                delta -= value
        for outpoint, output in zip(tx.outpoints, tx.outputs):
            if output.script_pubkey.to_bytes() == my_script:
                if outpoint in self._spent:
                    continue  # credit arrived after its own spend
                self._credit(outpoint, output.value)
                delta += output.value
        return delta

    # -- transaction construction ------------------------------------------------
    # Defined here, not hoisted: the benchmark's tracer finds them through
    # ``LightWallet.__dict__``.

    def create_announcement(self, payload: bytes) -> Transaction:
        """An OP_RETURN data-carrier transaction (IP directory entry)."""
        return self._announcement(payload)

    def create_key_release_offer(self, rsa_pubkey: bytes,
                                 gateway_pubkey_hash: bytes,
                                 amount: int,
                                 refund_locktime: int) -> KeyReleaseOffer:
        """The Listing-1 offer, with an explicit (header-tip-derived) locktime."""
        if refund_locktime <= 0:
            raise ValidationError(
                f"light offers need an explicit refund locktime, "
                f"got {refund_locktime}"
            )
        return self._key_release_offer(rsa_pubkey, gateway_pubkey_hash,
                                       amount, refund_locktime)

    def refund_key_release(self, offer: KeyReleaseOffer) -> Transaction:
        """Reclaim an unclaimed offer after its locktime expires."""
        return self._key_release_refund(offer)
