"""The seed wallets' coin ranking: the oracle for ``SingleKeyWallet``'s.

Before the wallets kept one value-descending view of their coins per
change of the coin set, every spend walked the whole owned-coin map,
filtered it and sorted what was left.  Those per-call scans are kept
here, reading the wallet's ``_owned`` / ``_pending_spends`` directly, so
the wallet state machines can require the same coins in the same order
-- equal-valued coins included -- at every step.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.errors import ValidationError

__all__ = [
    "spendable",
    "full_wallet_spendable",
    "light_wallet_spendable",
    "select_coins",
    "assert_selection_matches",
]


def spendable(wallet) -> list:
    """The wallet's own ranking: the coins it may spend now, largest-first,
    as its coin selection walks them."""
    return list(wallet._iter_spendable())


def full_wallet_spendable(wallet) -> list:
    """The seed ``Wallet.spendable_coins``: mature, unreserved, unspent."""
    maturity = wallet.chain.params.coinbase_maturity
    coins = []
    for outpoint, value in wallet._owned.items():
        if outpoint in wallet._pending_spends:
            continue
        entry = wallet.chain.utxos.get(outpoint)
        if entry is None:
            continue
        if entry.is_coinbase and wallet.chain.height - entry.height < maturity:
            continue
        coins.append((outpoint, value))
    coins.sort(key=lambda item: item[1], reverse=True)
    return coins


def light_wallet_spendable(wallet) -> list:
    """The seed ``LightWallet.spendable_coins``: unreserved proven coins."""
    coins = [(outpoint, value) for outpoint, value in wallet._owned.items()
             if outpoint not in wallet._pending_spends]
    coins.sort(key=lambda item: item[1], reverse=True)
    return coins


def select_coins(coins: list, amount: int) -> Optional[tuple[list, int]]:
    """The seed greedy selection over a ranked list; None if it falls short."""
    selected = []
    total = 0
    for outpoint, value in coins:
        selected.append((outpoint, value))
        total += value
        if total >= amount:
            return selected, total
    return None


def assert_selection_matches(wallet, expected):
    """:func:`spendable` and ``_select_coins`` against a reference list."""
    assert spendable(wallet) == expected
    total = sum(value for _, value in expected)
    amounts = {1, total // 3, total // 2, total, total + 1}
    # Boundaries of the greedy walk: exactly the top one, two, three coins.
    amounts.update(sum(value for _, value in expected[:n]) for n in (1, 2, 3))
    for amount in sorted(amounts - {0}):
        reference = select_coins(expected, amount)
        if reference is None:
            with pytest.raises(ValidationError,
                               match=f"have {total} spendable"):
                wallet._select_coins(amount)
        else:
            assert wallet._select_coins(amount) == reference
