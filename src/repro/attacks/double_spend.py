"""The double-spend attack of the paper's discussion (§6).

"In BcWAN we chose to allow the foreign gateway to not wait for
confirmation of the recipient transaction before providing the ephemeral
private key.  This can be a security threat as a malicious user could
double spend this transaction. ... the recipient can retrieve the
ephemeral private key necessary to decipher the encrypted data without
rewarding the foreign gateway."

:func:`run_double_spend` stages exactly that race at the blockchain
level: a malicious recipient broadcasts the key-release offer to the
gateway while racing a conflicting spend of the same coin to the miner.
If the gateway claims at zero confirmations, its claim dies with the
offer when the conflicting transaction is mined — but its claim already
published ``eSk``.  With ``confirmations_required >= 1`` the gateway only
reveals after the offer is buried, and the attack fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.crypto import rsa
from repro.crypto.keys import KeyPair

__all__ = ["DoubleSpendResult", "run_double_spend"]

# Seeds the keys of the staged race (a test that wants another sets it).
SEED = 0


@dataclass(frozen=True)
class DoubleSpendResult:
    """Outcome of one staged double-spend race."""

    confirmations_required: int
    key_revealed: bool       # did the gateway publish eSk?
    gateway_paid: bool       # does the gateway end up owning the reward?
    attacker_got_data: bool  # key revealed AND payment clawed back
    offer_confirmed: bool    # did the offer survive on the final chain?

    @property
    def attack_succeeded(self) -> bool:
        return self.attacker_got_data


def run_double_spend(confirmations_required: int) -> DoubleSpendResult:
    """Stage the §6 race under a given gateway confirmation policy.

    The attacker (a malicious recipient) holds a miner's ear: their
    conflicting transaction reaches the miner before the honest offer
    does — the standard race-attack assumption.
    """
    rng = random.Random(SEED)
    params = ChainParams(coinbase_maturity=1)

    # One miner node (the attacker-friendly view) and one gateway node.
    miner_node = FullNode(params, "miner")
    gateway_node = FullNode(params, "gateway")

    miner_wallet = Wallet(miner_node.chain, KeyPair.generate(rng))
    miner_wallet.watch_chain()
    miner = Miner(chain=miner_node.chain, mempool=miner_node.mempool,
                  reward_pubkey_hash=miner_wallet.pubkey_hash)

    def sync_gateway() -> None:
        for _height, block in miner_node.chain.iter_active_blocks(1):
            if not gateway_node.chain.contains(block.hash):
                gateway_node.submit_block(block)

    # Fund the attacker (the malicious recipient).
    attacker_key = KeyPair.generate(rng)
    for _ in range(3):
        miner.mine_and_connect(0.0)
    funding = miner_wallet.create_payment(attacker_key.pubkey_hash, 10_000)
    assert miner_node.submit_transaction(funding).accepted
    miner.mine_and_connect(1.0)
    sync_gateway()

    attacker_wallet = Wallet(miner_node.chain, attacker_key)
    attacker_wallet.refresh_from_utxo_set()
    gateway_wallet = Wallet(gateway_node.chain, KeyPair.generate(rng))
    gateway_wallet.watch_chain()

    # The gateway's ephemeral pair for the message in flight.
    ephemeral = rsa.generate_keypair(512, rng)

    # Step 9: the attacker crafts the offer... and a conflicting respend
    # of the same coin back to themself.
    offer = attacker_wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway_wallet.pubkey_hash,
        amount=100,
    )
    attacker_wallet.release_pending(offer.transaction)  # free the coin
    conflicting = attacker_wallet.create_payment(attacker_key.pubkey_hash,
                                                 9_000)
    # The race: the conflicting spend reaches the miner; the offer reaches
    # the gateway.  Each node accepts the first version it sees, and the
    # miner's refusal of the offer proves the two spend the same coin.
    assert miner_node.submit_transaction(conflicting).accepted
    assert gateway_node.submit_transaction(offer.transaction).accepted
    assert not miner_node.submit_transaction(offer.transaction).accepted

    key_revealed = False
    claim_tx = None
    if confirmations_required == 0:
        # Paper default: claim immediately at zero confirmations.  The
        # claim transaction *is* the revelation — once broadcast, the
        # attacker reads eSk from it regardless of what gets mined.
        claim_tx = gateway_wallet.claim_key_release(offer, ephemeral.to_bytes())
        assert gateway_node.submit_transaction(claim_tx).accepted
        key_revealed = True

    # The miner mines the block containing the conflicting transaction.
    block = miner.mine_and_connect(2.0)
    gateway_node.submit_block(block)

    offer_confirmed = bool(miner_node.chain.confirmations(
        offer.transaction.txid
    ))
    if confirmations_required > 0:
        # The cautious gateway checks before revealing: the offer never
        # confirms (its coin is gone), so eSk stays secret.
        for _ in range(confirmations_required):
            block = miner.mine_and_connect(3.0)
            gateway_node.submit_block(block)
        offer_confirmed = bool(gateway_node.chain.confirmations(
            offer.transaction.txid
        ))
        if offer_confirmed:  # pragma: no cover - honest path
            claim_tx = gateway_wallet.claim_key_release(
                offer, ephemeral.to_bytes()
            )
            gateway_node.submit_transaction(claim_tx)
            key_revealed = True

    # Settle: mine a couple of blocks and see who owns what.
    for _ in range(2):
        block = miner.mine_and_connect(4.0)
        gateway_node.submit_block(block)
    gateway_wallet.refresh_from_utxo_set()
    gateway_paid = gateway_wallet.balance >= 100

    return DoubleSpendResult(
        confirmations_required=confirmations_required,
        key_revealed=key_revealed,
        gateway_paid=gateway_paid,
        attacker_got_data=key_revealed and not gateway_paid,
        offer_confirmed=offer_confirmed,
    )
