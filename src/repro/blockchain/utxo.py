"""The unspent-transaction-output set and copy-on-write overlay views."""

from __future__ import annotations

import hashlib
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

from repro.blockchain.transaction import OutPoint, Transaction, TxOutput
from repro.errors import ValidationError

__all__ = ["UTXODelta", "UTXOEntry", "UTXOSet", "UTXOView"]


class UTXOEntry(NamedTuple):
    """An unspent output plus the metadata validation needs.

    A slot-less tuple record, like :class:`OutPoint`: entries are immutable
    and shared, never copied, between the set, overlays and block deltas.
    """

    output: TxOutput
    height: int
    is_coinbase: bool

    @property
    def value(self) -> int:
        return self.output.value

    @property
    def entry_hash(self) -> bytes:
        """Digest of everything script verification can observe.

        Deliberately excludes ``height`` and ``is_coinbase``: those feed
        the *contextual* stage (maturity), not script execution, and the
        same logical output must hash identically whether it was resolved
        from the confirmed set or synthesized from an unconfirmed parent
        — that equality is what lets the block-connect stage reuse script
        verdicts cached at mempool admission.
        """
        return hashlib.sha256(self.output.serialize()).digest()


# One committed overlay: the base entries it spent, last transaction first
# and each in input order read backwards; the entries it created, in order.
UTXODelta = tuple[dict[OutPoint, UTXOEntry], dict[OutPoint, UTXOEntry]]


class UTXOSet:
    """Mapping of :class:`OutPoint` to :class:`UTXOEntry`.

    Blocks reach the set through a :class:`UTXOView` whose commit is one
    :meth:`apply_delta`; the chain keeps that :data:`UTXODelta`'s spent
    half with the block, :meth:`revert_delta` (which hands back the
    created half) when a reorg disconnects it and :meth:`apply_delta`
    again when one reconnects it.
    """

    def __init__(self) -> None:
        self._entries: dict[OutPoint, UTXOEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._entries

    def get(self, outpoint: OutPoint) -> Optional[UTXOEntry]:
        return self._entries.get(outpoint)

    def items(self) -> Iterator[tuple[OutPoint, UTXOEntry]]:
        return iter(self._entries.items())

    def total_value(self) -> int:
        return sum(entry.value for entry in self._entries.values())

    def add(self, outpoint: OutPoint, entry: UTXOEntry) -> None:
        if outpoint in self._entries:
            raise ValidationError(f"duplicate UTXO: {outpoint}")
        self._entries[outpoint] = entry

    def remove(self, outpoint: OutPoint) -> UTXOEntry:
        entry = self._entries.pop(outpoint, None)
        if entry is None:
            raise ValidationError(f"missing UTXO: {outpoint}")
        return entry

    def apply_delta(self, spent: dict[OutPoint, UTXOEntry],
                    added: dict[OutPoint, UTXOEntry]) -> None:
        """Remove ``spent``, then insert ``added``: one overlay's delta.

        Every check runs before anything mutates, so a delta that does
        not fit the set raises :class:`ValidationError` and leaves it
        untouched.  An outpoint in both is replaced.  The checks are set
        operations run in C, each as long as the delta, not the set.
        """
        entries = self._entries
        missing = set(spent).difference(entries)
        if missing:
            raise ValidationError(f"missing UTXO: {min(missing)}")
        clash = (added.keys() & entries.keys()).difference(spent)
        if clash:
            raise ValidationError(f"duplicate UTXO: {min(clash)}")
        for outpoint in spent:
            del entries[outpoint]
        entries.update(added)

    def revert_delta(self, spent: dict[OutPoint, UTXOEntry],
                     created: Collection[OutPoint],
                     consumed: Iterable[OutPoint] = ()
                     ) -> dict[OutPoint, UTXOEntry]:
        """Undo :meth:`apply_delta`, checked first as it is: take out what
        the set holds at ``created`` (the delta's outputs, absent only if
        it ``consumed`` them: read only then), return it for a replay and
        put back ``spent``'s entries as per-transaction undo did."""
        entries = self._entries
        added = {op: entries[op] for op in created if op in entries}
        missing = (set(created).difference(added, consumed)
                   if len(added) < len(created) else ())
        if missing:
            raise ValidationError(f"missing UTXO: {min(missing)}")
        clash = (spent.keys() & entries.keys()).difference(added)
        if clash:
            raise ValidationError(f"duplicate UTXO: {min(clash)}")
        for outpoint in added:
            del entries[outpoint]
        entries.update(reversed(spent.items()))
        return added

    def snapshot(self) -> dict[OutPoint, UTXOEntry]:
        """A shallow copy of the current set (entries are immutable)."""
        return dict(self._entries)


class UTXOView:
    """A copy-on-write overlay over a :class:`UTXOSet`, for the block
    :meth:`~repro.blockchain.engine.ValidationEngine.connect_block` checks.

    Every change lands in the overlay; the set is never touched until
    :meth:`commit`, so a block that fails needs no undo path at all — the
    view is simply dropped.

    The overlay is ``_added`` (created here) and ``_spent`` (the base
    entries spent here).  A base outpoint spent and then created again
    is in both, and the created entry is what the view shows.
    """

    def __init__(self, base: UTXOSet) -> None:
        self._base = base
        self._added: dict[OutPoint, UTXOEntry] = {}
        self._spent: dict[OutPoint, UTXOEntry] = {}

    def get(self, outpoint: OutPoint) -> Optional[UTXOEntry]:
        entry = self._added.get(outpoint)
        if entry is not None or outpoint in self._spent:
            return entry
        return self._base.get(outpoint)

    def resolve(self, tx: Transaction) -> list[Optional[UTXOEntry]]:
        """The entry each input spends (``None`` where missing), one
        lookup per outpoint; empty for a coinbase.

        The resolved list then serves every later per-input step -- the
        contextual checks, the script batch and :meth:`apply_resolved` --
        so none of them looks the outpoint up again.
        """
        if tx.is_coinbase:
            return []
        get = self.get
        return [get(tx_input.outpoint) for tx_input in tx.inputs]

    def apply_resolved(self, tx: Transaction, entries: list[UTXOEntry],
                       height: int) -> None:
        """Spend ``tx``'s inputs, already resolved by :meth:`resolve` and
        all present, then create its outputs.  Inputs are spent last to
        first, so ``_spent`` read backwards is the order to revert in."""
        added, spent, chained = self._added, self._spent, set()
        for tx_input, entry in zip(reversed(tx.inputs), reversed(entries)):
            outpoint = tx_input.outpoint
            if added.pop(outpoint, None) is not None:
                chained.add(outpoint)
            elif outpoint in spent or outpoint in chained:  # twice in tx
                raise ValidationError(f"missing UTXO: {outpoint}")
            else:
                spent[outpoint] = entry
        base_get, is_coinbase = self._base.get, tx.is_coinbase
        for outpoint, output in zip(tx.outpoints, tx.outputs):
            if outpoint in added or (outpoint not in spent
                                     and base_get(outpoint) is not None):
                raise ValidationError(f"duplicate UTXO: {outpoint}")
            added[outpoint] = UTXOEntry(output, height, is_coinbase)

    def commit(self) -> UTXODelta:
        """Write the overlay's delta into the base set, hand it to the
        caller and start an empty overlay.

        One :meth:`UTXOSet.apply_delta`: a delta that no longer fits the
        base (a stale view) raises before the base changes.  An output
        both created and consumed inside the overlay (a chained spend
        within one block) never touches the base at all.
        """
        delta = self._spent, self._added
        self._base.apply_delta(*delta)
        self._spent, self._added = {}, {}
        return delta
