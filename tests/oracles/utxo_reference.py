"""Transactions applied and undone one at a time: the tests' driver, and
the ledger the chain's block deltas are held to.

Blocks reach the ledger one way, ``ValidationEngine.connect_block``:
``UTXOView.resolve`` each transaction, check it, ``apply_resolved``, and
commit the view once.  Tests that apply a single transaction — and the
input-at-a-time engine reference — run those same calls here, with a
missing-input error of their own in place of the engine's contextual
checks.

:class:`ReferenceChain` keeps a UTXO set the way the chain kept it before
it kept one delta per block: every connect applies the block transaction
by transaction, every disconnect undoes it transaction by transaction
from per-transaction undo records, last transaction first, and a failed
reorg connects the old branch again.
"""

from __future__ import annotations

from typing import Union

from repro.blockchain.block import Block
from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError

__all__ = ["ReferenceChain", "apply_transaction", "undo_transaction"]


def apply_transaction(ledger: Union[UTXOSet, UTXOView], tx: Transaction,
                      height: int) -> dict[OutPoint, UTXOEntry]:
    """Spend ``tx``'s inputs and create its outputs; returns the spent
    entries keyed by outpoint, in input order (the undo record).

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
    spent = {tx_input.outpoint: entry
             for tx_input, entry in zip(tx.inputs, entries)}
    view.apply_resolved(tx, entries, height)
    if view is not ledger:
        view.commit()
    return spent


def undo_transaction(utxos: UTXOSet, tx: Transaction,
                     spent: dict[OutPoint, UTXOEntry]) -> None:
    """Reverse one :func:`apply_transaction` on a set: drop ``tx``'s
    outputs, then put back the very entries it spent, in input order."""
    for outpoint in tx.outpoints:
        utxos.apply_delta({outpoint: utxos.get(outpoint)}, {})
    for outpoint, entry in spent.items():
        utxos.add(outpoint, entry)


class ReferenceChain:
    """Longest chain, first seen winning ties, over a UTXO set changed one
    transaction at a time.

    It sees one kind of invalid block, one spending a missing output, and
    like ``Chain`` it refuses a descendant of a block that failed to
    connect during a reorg.  A block whose parent it does not hold is
    ignored (``Chain`` holds it as an orphan that never attaches).
    """

    def __init__(self, genesis: Block) -> None:
        self.utxos = UTXOSet()
        self._blocks: dict[bytes, tuple[Block, int]] = {
            genesis.hash: (genesis, 0)}
        self._active = [genesis.hash]
        self._undo: dict[bytes, list[dict[OutPoint, UTXOEntry]]] = {}
        self._invalid: set[bytes] = set()

    @property
    def tip(self) -> bytes:
        return self._active[-1]

    def add_block(self, block: Block) -> None:
        parent = block.header.prev_hash
        if block.hash in self._blocks or parent not in self._blocks:
            return
        if parent in self._invalid:
            raise ValidationError("descends from an invalid block")
        height = self._blocks[parent][1] + 1
        if parent == self.tip:
            self._connect(block.hash, block, height)
            self._blocks[block.hash] = (block, height)
            return
        self._blocks[block.hash] = (block, height)
        if height < len(self._active):
            return
        branch, cursor = [], block.hash
        while (height >= len(self._active)
               or self._active[height] != cursor):
            if cursor in self._invalid:
                self._invalid.update(branch)
                raise ValidationError("descends from an invalid block")
            branch.append(cursor)
            cursor = self._blocks[cursor][0].header.prev_hash
            height -= 1
        branch.reverse()
        rollback = [self._disconnect()
                    for _ in range(len(self._active) - 1 - height)]
        connected = 0
        try:
            for block_hash in branch:
                self._connect(block_hash, *self._blocks[block_hash])
                connected += 1
        except ValidationError:
            self._invalid.update(branch[connected:])
            for _ in range(connected):
                self._disconnect()
            for block_hash in reversed(rollback):
                self._connect(block_hash, *self._blocks[block_hash])
            raise

    def _connect(self, block_hash: bytes, block: Block, height: int) -> None:
        view = UTXOView(self.utxos)
        undo = [apply_transaction(view, tx, height)
                for tx in block.transactions]
        view.commit()
        self._undo[block_hash] = undo
        self._active.append(block_hash)

    def _disconnect(self) -> bytes:
        block_hash = self._active.pop()
        block = self._blocks[block_hash][0]
        for tx, spent in zip(reversed(block.transactions),
                             reversed(self._undo.pop(block_hash))):
            undo_transaction(self.utxos, tx, spent)
        return block_hash
