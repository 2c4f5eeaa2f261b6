"""Fee-market policy: floors, caps, eviction cascades, packages.

These tests exercise the :class:`MempoolPolicy` knobs that the headline
``Mempool.accept`` API redesign fronts — the default all-zero policy is
covered by the classic suite (``test_mempool.py``), which must behave
exactly as it did before the fee market existed.
"""

from __future__ import annotations

import pytest

from repro.blockchain.mempool import (
    AcceptResult,
    Mempool,
    MempoolPolicy,
    REJECT_FEE,
    REJECT_FULL,
)
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError


def _repool(node, policy):
    """Swap the node's mempool for one running ``policy``."""
    node.mempool = Mempool(node.chain, policy=policy)
    return node.mempool


def _payment(wallet, rng, amount, fee):
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash,
                               amount, fee=fee)
    return tx


# -- policy validation ---------------------------------------------------------

def test_policy_rejects_negative_knobs():
    with pytest.raises(ConfigurationError, match="min_fee_per_kb"):
        MempoolPolicy(min_fee_per_kb=-1)
    with pytest.raises(ConfigurationError, match="max_transactions"):
        MempoolPolicy(max_transactions=-1)


def test_default_policy_disables_everything(funded_chain, rng):
    node, wallet, _miner = funded_chain
    assert node.mempool.policy == MempoolPolicy()
    result = node.mempool.accept(_payment(wallet, rng, 100, fee=0))
    assert result.accepted and result.fee == 0 and result.fee_per_kb == 0


# -- fee floor -----------------------------------------------------------------

def test_fee_floor_rejects_underpriced_transactions(funded_chain, rng):
    node, wallet, _miner = funded_chain
    pool = _repool(node, MempoolPolicy(min_fee_per_kb=1000))
    cheap = _payment(wallet, rng, 100, fee=0)
    result = pool.accept(cheap)
    assert not result.accepted
    assert result.reason_code == REJECT_FEE
    assert "below floor" in result.reason
    assert cheap.txid not in pool

    wallet.release_pending(cheap)
    priced = _payment(wallet, rng, 100, fee=1000)
    result = pool.accept(priced)
    assert result.accepted
    assert result.fee == 1000
    assert result.fee_per_kb == 1000 * 1000 // len(priced.serialize())
    assert result.fee_per_kb >= 1000


# -- eviction ------------------------------------------------------------------

def test_lowest_feerate_evicted_on_count_cap(funded_chain, rng):
    node, wallet, _miner = funded_chain
    pool = _repool(node, MempoolPolicy(max_transactions=2))
    low = _payment(wallet, rng, 100, fee=10)
    mid = _payment(wallet, rng, 100, fee=500)
    high = _payment(wallet, rng, 100, fee=900)
    assert pool.accept(low).accepted
    assert pool.accept(mid).accepted
    result = pool.accept(high)
    assert result.accepted
    assert result.evicted == (low.txid,)
    assert low.txid not in pool and mid.txid in pool and high.txid in pool
    assert pool.evictions == 1


def test_arriving_transaction_can_be_the_victim(funded_chain, rng):
    node, wallet, _miner = funded_chain
    pool = _repool(node, MempoolPolicy(max_transactions=2))
    assert pool.accept(_payment(wallet, rng, 100, fee=500)).accepted
    assert pool.accept(_payment(wallet, rng, 100, fee=900)).accepted
    runt = _payment(wallet, rng, 100, fee=1)
    result = pool.accept(runt)
    assert not result.accepted
    assert result.reason_code == REJECT_FULL
    assert runt.txid in result.evicted
    assert runt.txid not in pool
    assert len(pool) == 2


def test_eviction_cascades_through_descendants(funded_chain, rng):
    node, wallet, miner = funded_chain
    pool = _repool(node, MempoolPolicy(max_transactions=2))
    parent = wallet.create_payment(wallet.pubkey_hash, 1000, fee=5)
    assert pool.accept(parent).accepted

    # A child spending the unconfirmed parent output.
    from repro.blockchain.transaction import (
        OutPoint, Transaction, TxInput, TxOutput,
    )
    from repro.script.builder import p2pkh_locking
    child = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid, index=0))],
        outputs=[TxOutput(value=990,
                          script_pubkey=p2pkh_locking(wallet.pubkey_hash))],
    )
    child = wallet._finalize_p2pkh_inputs(child)
    assert pool.accept(child).accepted

    # A high-fee arrival evicts the low-rate parent — and must drag the
    # now-unresolvable child with it.
    rich = _payment(wallet, rng, 100, fee=2000)
    result = pool.accept(rich)
    assert result.accepted
    assert set(result.evicted) == {parent.txid, child.txid}
    assert len(pool) == 1 and rich.txid in pool
    assert pool.evictions == 2


def test_byte_cap_enforced(funded_chain, rng):
    node, wallet, _miner = funded_chain
    first = _payment(wallet, rng, 100, fee=10)
    size = len(first.serialize())
    pool = _repool(node, MempoolPolicy(max_bytes=size + size // 2))
    assert pool.accept(first).accepted
    assert pool.total_bytes == size
    second = _payment(wallet, rng, 100, fee=2000)
    result = pool.accept(second)
    assert result.accepted
    assert result.evicted == (first.txid,)
    assert pool.total_bytes <= size + size // 2


def test_accept_result_is_frozen():
    result = AcceptResult(accepted=True, txid=b"\x01" * 32)
    with pytest.raises(AttributeError):
        result.accepted = False
