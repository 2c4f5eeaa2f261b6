"""The unconfirmed-transaction pool.

Accepts transactions after full validation against the chain tip plus the
pool itself (chained unconfirmed spends are allowed, conflicting spends are
rejected — which is exactly where the paper's double-spend discussion
starts: a conflicting respend is invisible to a node that already holds
the first transaction, until a block proves otherwise).

Admission is a *verdict*, not an exception: :meth:`Mempool.accept` returns
an :class:`AcceptResult` carrying the outcome, a stable ``reason_code``
for programmatic flow control (gossip keys orphan handling off
:data:`REJECT_MISSING_INPUTS`, not string matching).

The pool has no fee floor and no cap, as the paper's Multichain has
none: every valid transaction waits in it until a block confirms it or a
confirmed conflict displaces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.blockchain.chain import Chain
from repro.blockchain.engine import (
    REJECT_CHECKPOINT,
    REJECT_COINBASE,
    REJECT_CONFLICT,
    REJECT_DUPLICATE,
    REJECT_IMMATURE,
    REJECT_MISSING_INPUTS,
    REJECT_NON_FINAL,
    REJECT_NONSTANDARD,
    REJECT_SCRIPT,
    REJECT_SYNTAX,
    REJECT_VALUE,
)
from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.utxo import UTXOEntry
from repro.errors import ValidationError

__all__ = [
    "AcceptResult",
    "Mempool",
    "REJECT_CHECKPOINT",
    "REJECT_COINBASE",
    "REJECT_CONFLICT",
    "REJECT_DUPLICATE",
    "REJECT_IMMATURE",
    "REJECT_MISSING_INPUTS",
    "REJECT_NONSTANDARD",
    "REJECT_NON_FINAL",
    "REJECT_SCRIPT",
    "REJECT_SYNTAX",
    "REJECT_VALUE",
]


@dataclass(frozen=True)
class AcceptResult:
    """The verdict of one admission attempt.

    :param accepted: whether ``txid`` is now in the pool.
    :param txid: the subject transaction.
    :param reason: human-readable rejection diagnosis (empty on accept);
        for :data:`REJECT_SCRIPT` et al. this is the engine's
        :class:`ValidationError` message.
    :param reason_code: one of the ``REJECT_*`` constants of
        :mod:`repro.blockchain.engine` (empty on accept) — the field flow
        control should branch on.
    """

    accepted: bool
    txid: bytes
    reason: str = ""
    reason_code: str = ""


class Mempool:
    """Validated unconfirmed transactions, keyed by txid.

    Admission runs the chain engine's stages — syntax, the contextual
    stage over pool-aware resolution, scripts — so every verdict lands
    in the shared script cache and the eventual block connect never
    re-executes an admitted transaction's scripts.  The fee the
    contextual stage returns is recorded for the miner.

    :param chain: the chain whose tip admission validates against.
    """

    def __init__(self, chain: Chain) -> None:
        self._chain = chain
        self._engine = chain.engine
        self.clear()

    def clear(self) -> None:
        """Drop every pooled transaction."""
        self._transactions: dict[bytes, Transaction] = {}
        # outpoint -> txid of the pool transaction spending it.
        self._spends: dict[OutPoint, bytes] = {}
        # Serialized sizes (``total_bytes``, block templates) and fees.
        self._sizes: dict[bytes, int] = {}
        self._fees: dict[bytes, int] = {}
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._transactions)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._transactions

    def get(self, txid: bytes) -> Optional[Transaction]:
        return self._transactions.get(txid)

    def transactions(self) -> Iterator[Transaction]:
        return iter(self._transactions.values())

    @property
    def total_bytes(self) -> int:
        """Summed serialized sizes of every pooled transaction."""
        return self._total_bytes

    def fee(self, txid: bytes) -> int:
        """The fee admission computed for pooled ``txid``."""
        return self._fees[txid]

    def conflicts_with(self, tx: Transaction) -> list[bytes]:
        """Txids already in the pool that spend any of ``tx``'s inputs."""
        seen = []
        for tx_input in tx.inputs:
            existing = self._spends.get(tx_input.outpoint)
            if existing is not None and existing != tx.txid:
                seen.append(existing)
        return seen

    # -- admission -------------------------------------------------------------

    def _reject(self, tx: Transaction, code: str,
                reason: str) -> AcceptResult:
        return AcceptResult(accepted=False, txid=tx.txid, reason=reason,
                            reason_code=code)

    def accept(self, tx: Transaction) -> AcceptResult:
        """Validate and admit ``tx``; the verdict is the return value.

        Inputs may come from the confirmed UTXO set or from other pool
        transactions (unconfirmed chaining), but never from outputs
        already spent by another pool transaction.  Never raises for a
        rejected transaction — branch on ``result.accepted`` and
        ``result.reason_code``.
        """
        if tx.txid in self._transactions:
            return self._reject(
                tx, REJECT_DUPLICATE,
                f"transaction {tx.txid.hex()[:16]}.. already in pool")
        if tx.is_coinbase:
            return self._reject(
                tx, REJECT_COINBASE,
                "coinbase transactions cannot enter the pool")
        try:
            self._engine.check_transaction_syntax(tx)
        except ValidationError as exc:
            return self._reject(tx, REJECT_SYNTAX, str(exc))
        # Anchor-chain only (no-op elsewhere): stale checkpoints are
        # turned away at admission, before input resolution.
        try:
            self._engine.check_checkpoints(tx)
        except ValidationError as exc:
            return self._reject(tx, REJECT_CHECKPOINT, str(exc))

        conflicts = self.conflicts_with(tx)
        if conflicts:
            return self._reject(
                tx, REJECT_CONFLICT,
                f"transaction {tx.txid.hex()[:16]}.. double-spends inputs of "
                f"pool transaction(s) "
                f"{', '.join(c.hex()[:16] + '..' for c in conflicts)}")

        # Standardness pre-pass: a template check, so it runs before
        # input resolution — an output that fits no template or a
        # non-push unlocking script is turned away without touching the
        # UTXO set or executing a single opcode.
        standardness = self._engine.policy.check_transaction(tx)
        if standardness is not None:
            return self._reject(
                tx, REJECT_NONSTANDARD,
                f"transaction {tx.txid.hex()[:16]}.. is not standard: "
                f"{standardness}")

        # The engine's contextual stage, over pool-aware resolution.
        next_height = self._chain.height + 1
        resolved = [self._resolve(tx_input.outpoint)
                    for tx_input in tx.inputs]
        try:
            fee = self._engine._check_resolved_inputs(tx, resolved,
                                                      next_height)
        except ValidationError as exc:
            return self._reject(tx, exc.code, str(exc))

        # Mempool policy mirrors Bitcoin: non-final transactions wait.
        if not tx.is_final(next_height,
                           self._chain.tip.block.header.timestamp):
            return self._reject(
                tx, REJECT_NON_FINAL,
                f"transaction {tx.txid.hex()[:16]}.. is not final at "
                f"height {next_height}")

        # Script execution, through the engine so verdicts land in the
        # shared cache (all inputs as one cross-input batch).
        try:
            self._engine.verify_input_scripts(tx, resolved)
        except ValidationError as exc:
            return self._reject(tx, REJECT_SCRIPT, str(exc))

        self._transactions[tx.txid] = tx
        for tx_input in tx.inputs:
            self._spends[tx_input.outpoint] = tx.txid
        size = len(tx.serialize())
        self._sizes[tx.txid] = size
        self._fees[tx.txid] = fee
        self._total_bytes += size
        return AcceptResult(accepted=True, txid=tx.txid)

    # -- resolution and removal --------------------------------------------------

    def _resolve(self, outpoint: OutPoint) -> Optional[UTXOEntry]:
        """Find an outpoint in the confirmed set or among pool outputs."""
        entry = self._chain.utxos.get(outpoint)
        if entry is not None:
            return entry
        parent = self._transactions.get(outpoint.txid)
        if parent is not None and outpoint.index < len(parent.outputs):
            return UTXOEntry(
                output=parent.outputs[outpoint.index],
                height=self._chain.height + 1,
                is_coinbase=False,
            )
        return None

    def remove(self, txid: bytes) -> Optional[Transaction]:
        """Drop a transaction (and its spend claims) from the pool."""
        tx = self._transactions.pop(txid, None)
        if tx is None:
            return None
        for tx_input in tx.inputs:
            if self._spends.get(tx_input.outpoint) == txid:
                del self._spends[tx_input.outpoint]
        self._total_bytes -= self._sizes.pop(txid)
        del self._fees[txid]
        return tx

    def _remove_with_descendants(self, txid: bytes) -> list[bytes]:
        """Drop ``txid`` and every pool transaction depending on it,
        parents before children (insertion order is already
        topological): a transaction that leaves the pool takes its
        unconfirmed descendants along, so no chain is left dangling."""
        selected = {txid}
        for candidate, tx in self._transactions.items():
            if candidate in selected:
                continue
            if any(tx_input.outpoint.txid in selected
                   for tx_input in tx.inputs):
                selected.add(candidate)
        dropped = [candidate for candidate in self._transactions
                   if candidate in selected]
        for candidate in dropped:
            self.remove(candidate)
        return dropped

    def remove_confirmed(self, transactions) -> int:
        """Evict transactions that made it into a block, plus conflicts.

        Returns how many entries were removed.  A confirmed transaction
        also invalidates any pool transaction spending the same inputs
        (the loser of a double-spend race), and with it that loser's
        pooled descendants.
        """
        removed = 0
        for tx in transactions:
            if self.remove(tx.txid) is not None:
                removed += 1
            for tx_input in tx.inputs:
                conflicting = self._spends.get(tx_input.outpoint)
                if conflicting is not None:
                    removed += len(
                        self._remove_with_descendants(conflicting))
        return removed

    def select_for_block(self, max_bytes: int) -> list[Transaction]:
        """Pick transactions for a block template, respecting dependencies.

        Insertion order already topologically sorts unconfirmed chains
        (a child can only be accepted after its parent), so a linear pass
        suffices.
        """
        selected: list[Transaction] = []
        used = 0
        included: set[bytes] = set()
        for txid, tx in self._transactions.items():
            size = self._sizes[txid]
            if used + size > max_bytes:
                continue
            # Parents must be confirmed or already included.
            depends_ok = all(
                tx_input.outpoint.txid not in self._transactions
                or tx_input.outpoint.txid in included
                for tx_input in tx.inputs
            )
            if not depends_ok:
                continue
            selected.append(tx)
            included.add(txid)
            used += size
        return selected
