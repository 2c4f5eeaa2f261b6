"""One transaction applied to a UTXO set or overlay: the tests' driver.

Blocks reach the ledger one way, ``ValidationEngine.connect_block``:
``UTXOView.resolve`` each transaction, check it, ``apply_resolved``, and
commit the view once.  Tests that apply a single transaction — and the
input-at-a-time engine reference — run those same calls here, with a
missing-input error of their own in place of the engine's contextual
checks.
"""

from __future__ import annotations

from typing import Union

from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError

__all__ = ["apply_transaction"]


def apply_transaction(ledger: Union[UTXOSet, UTXOView], tx: Transaction,
                      height: int) -> dict[OutPoint, UTXOEntry]:
    """Spend ``tx``'s inputs and create its outputs; returns the spent
    entries keyed by outpoint (the undo record).

    A :class:`UTXOSet` changes through one view committed with
    ``apply_delta``; a :class:`UTXOView` keeps the delta in its overlay.
    Any missing input raises :class:`ValidationError` naming all of them,
    and leaves the ledger unchanged.
    """
    view = UTXOView(ledger) if isinstance(ledger, UTXOSet) else ledger
    entries = view.resolve(tx)
    missing = [tx_input.outpoint
               for tx_input, entry in zip(tx.inputs, entries)
               if entry is None]
    if missing:
        raise ValidationError(
            f"transaction {tx.txid.hex()[:16]}.. spends missing "
            f"outputs: {', '.join(str(o) for o in missing)}"
        )
    spent = view.apply_resolved(tx, entries, height)
    if view is not ledger:
        view.commit()
    return spent
