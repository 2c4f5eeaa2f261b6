"""Chain state: block storage, fork choice, and reorganization.

Fork choice is longest chain, first seen winning on ties: every block
carries the same work on a scheduled chain, as on Multichain.
The UTXO set always reflects the active tip; side-chain blocks are stored
and can trigger a reorg when their branch overtakes the active one — the
mechanism behind the double-spend attack the paper's section 6 discusses.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.blockchain.block import Block
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.engine import ValidationEngine, ValidationReport
from repro.blockchain.utxo import UTXOEntry, UTXOSet
from repro.errors import ValidationError
from repro.script.builder import op_return
from repro.script.script import Script

__all__ = ["Chain", "BlockRecord", "create_genesis_block", "AddBlockResult"]

GENESIS_TAG = b"BcWAN genesis: no core network, no trusted third party"

# Blocks held while their parent is unknown (a refused block's children
# never attach): past this many, the oldest parent's children all go.
ORPHAN_POOL_SIZE = 256


def create_genesis_block(params: ChainParams) -> Block:
    """The deterministic genesis block shared by all nodes of a chain."""
    coinbase = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([GENESIS_TAG]))],
        outputs=[TxOutput(value=0, script_pubkey=op_return(GENESIS_TAG))],
    )
    return Block.assemble(prev_hash=b"\x00" * 32, timestamp=0.0,
                          transactions=[coinbase])


@dataclass
class BlockRecord:
    """A stored block with its chain position metadata."""

    block: Block
    height: int
    # The base entries the block's one connect spent (None until then)
    # and, while a reorg has it disconnected, the entries it created.
    spent: Optional[dict[OutPoint, UTXOEntry]] = None
    added: Optional[dict[OutPoint, UTXOEntry]] = None
    # It failed to connect, or descends from a block that did.
    invalid: bool = False

    @property
    def hash(self) -> bytes:
        return self.block.hash


@dataclass(frozen=True)
class AddBlockResult:
    """Outcome of :meth:`Chain.add_block` / one :meth:`Chain.add_blocks` item.

    ``status`` is one of ``"active"``, ``"side"``, ``"duplicate"``,
    ``"orphan"``, or — from :meth:`Chain.add_blocks` only, which reports
    instead of raising — ``"invalid"`` with ``reason`` carrying the
    :class:`ValidationError` message.
    """

    status: str
    reorged: bool = False
    disconnected: tuple[bytes, ...] = ()
    connected: tuple[bytes, ...] = ()
    reason: str = ""


class Chain:
    """The validated chain of one node."""

    def __init__(self, params: Optional[ChainParams] = None,
                 verify_scripts: Optional[bool] = None) -> None:
        self.params = params or ChainParams()
        # The staged validation pipeline plus its script cache; whether
        # connecting blocks re-runs scripts defaults to the chain params'
        # verify_blocks flag (the Fig. 5 / Fig. 6 toggle).
        self.engine = ValidationEngine(self.params,
                                       verify_scripts=verify_scripts)
        self._listeners: list[Callable[[Block, int], None]] = []
        self.reset()

    def reset(self) -> None:
        """Back to genesis: every block, orphan and UTXO goes; the engine
        and the connect listeners stay."""
        # The last block validation's report: its fees and UTXO delta.
        self.last_report: Optional[ValidationReport] = None
        self.utxos = UTXOSet()
        genesis = create_genesis_block(self.params)
        self._records: dict[bytes, BlockRecord] = {genesis.hash: BlockRecord(
            block=genesis, height=0, spent={})}
        self._active: list[bytes] = [genesis.hash]
        # txid -> heights of the active blocks carrying it, ascending, for
        # active heights 0.._indexed.  A lookup first indexes up to the
        # tip, so a chain nobody asks pays nothing per block.
        self._tx_heights: dict[bytes, list[int]] = {}
        self._indexed = -1
        # Blocks whose parent we have not seen yet, keyed by parent hash.
        self._orphans: dict[bytes, list[Block]] = {}
        # Genesis coinbase output is an OP_RETURN: deliberately not added
        # to the UTXO set (unspendable).

    # -- inspection -----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self._active) - 1

    @property
    def tip(self) -> BlockRecord:
        return self._records[self._active[-1]]

    @property
    def genesis(self) -> Block:
        return self._records[self._active[0]].block

    def block_at(self, height: int) -> Optional[Block]:
        if not 0 <= height < len(self._active):
            return None
        return self._records[self._active[height]].block

    def record_for(self, block_hash: bytes) -> Optional[BlockRecord]:
        return self._records.get(block_hash)

    def contains(self, block_hash: bytes) -> bool:
        return block_hash in self._records

    def is_active(self, block_hash: bytes) -> bool:
        record = self._records.get(block_hash)
        if record is None:
            return False
        return (record.height < len(self._active)
                and self._active[record.height] == block_hash)

    def confirmations(self, txid: bytes) -> int:
        """How many blocks deep a transaction is (0 = unconfirmed)."""
        heights = self._heights(txid)
        return len(self._active) - heights[-1] if heights else 0

    def find_transaction(self, txid: bytes) -> Optional[tuple[Transaction, int]]:
        """Locate a transaction on the active chain; returns (tx, height)
        at the highest height that carries it."""
        heights = self._heights(txid)
        if not heights:
            return None
        height = heights[-1]
        block = self._records[self._active[height]].block
        return next(tx for tx in block.transactions if tx.txid == txid), height

    def iter_active_blocks(self, start_height: int = 0):
        """Yield ``(height, block)`` along the active chain."""
        for height in range(start_height, len(self._active)):
            yield height, self._records[self._active[height]].block

    def add_connect_listener(self, listener: Callable[[Block, int], None]) -> None:
        """Register a callback invoked for each block connected to the tip."""
        self._listeners.append(listener)

    @contextmanager
    def silenced(self) -> Iterator[None]:
        """Connect blocks without telling the listeners (a replay of
        blocks they have already seen)."""
        listeners, self._listeners = self._listeners, []
        try:
            yield
        finally:
            self._listeners = listeners

    # -- mutation --------------------------------------------------------------

    def add_block(self, block: Block) -> AddBlockResult:
        """Validate and store ``block``, reorganizing if it wins fork choice.

        Raises :class:`ValidationError` only for blocks that are provably
        invalid; unknown-parent blocks are held as orphans (at most
        :data:`ORPHAN_POOL_SIZE`) and connected when the parent arrives.
        """
        if block.hash in self._records:
            return AddBlockResult(status="duplicate")
        parent = self._records.get(block.header.prev_hash)
        if parent is None:
            orphans = self._orphans
            orphans.setdefault(block.header.prev_hash, []).append(block)
            if sum(map(len, orphans.values())) > ORPHAN_POOL_SIZE:
                del orphans[next(iter(orphans))]
            return AddBlockResult(status="orphan")

        result = self._attach(block, parent)
        # Any orphans waiting for this block can now be attached.
        final = result
        pending = self._orphans.pop(block.hash, [])
        while pending:
            child = pending.pop()
            child_parent = self._records.get(child.header.prev_hash)
            if child_parent is None:  # pragma: no cover - defensive
                continue
            try:
                child_result = self._attach(child, child_parent)
            except ValidationError:
                continue
            if child_result.status == "active":
                final = AddBlockResult(
                    status="active",
                    reorged=final.reorged or child_result.reorged,
                    disconnected=final.disconnected + child_result.disconnected,
                    connected=final.connected + child_result.connected,
                )
            pending.extend(self._orphans.pop(child.hash, []))
        return final

    def add_blocks(self, blocks: list[Block]) -> list[AddBlockResult]:
        """Add a batch of blocks; returns one result per block, in order.

        Exactly :meth:`add_block` per block, with a
        :class:`ValidationError` caught into an ``"invalid"`` result.
        After an invalid block its descendants in the run are stashed as
        orphans, as their parent was never recorded.
        """
        results = []
        for block in blocks:
            try:
                results.append(self.add_block(block))
            except ValidationError as exc:
                results.append(AddBlockResult(status="invalid",
                                              reason=str(exc)))
        return results

    def _attach(self, block: Block, parent: BlockRecord) -> AddBlockResult:
        if parent.invalid:
            raise ValidationError(f"block {block.hash.hex()[:16]}.. "
                                  f"descends from an invalid block")
        self.engine.check_block(block, parent.height)
        record = BlockRecord(block=block, height=parent.height + 1)

        if parent.hash == self._active[-1]:
            self._connect(record)
            self._records[block.hash] = record
            self._notify(block, record.height)
            return AddBlockResult(status="active", connected=(block.hash,))

        self._records[block.hash] = record
        if record.height > self.tip.height:
            return self._reorganize(record)
        return AddBlockResult(status="side")

    def _reorganize(self, new_tip: BlockRecord) -> AddBlockResult:
        """Switch the active chain to the branch ending at ``new_tip``."""
        # Collect the new branch back to the fork point.
        branch: list[BlockRecord] = []
        cursor: Optional[BlockRecord] = new_tip
        while cursor is not None and not self.is_active(cursor.hash):
            if cursor.invalid:  # a side branch stored before it failed
                for record in branch:
                    record.invalid = True
                raise ValidationError(f"block {new_tip.hash.hex()[:16]}.. "
                                      f"descends from an invalid block")
            branch.append(cursor)
            cursor = self._records.get(cursor.block.header.prev_hash)
        if cursor is None:
            raise ValidationError("side branch does not connect to the chain")
        branch.reverse()
        fork_height = cursor.height

        # Disconnect active blocks above the fork point by reverting
        # their deltas, newest first.
        disconnected: list[bytes] = []
        rollback: list[BlockRecord] = []
        while len(self._active) - 1 > fork_height:
            tip_record = self._pop()
            self._undo_block(tip_record)
            disconnected.append(tip_record.hash)
            rollback.append(tip_record)

        # Connect the new branch; on failure restore the old chain.
        connected: list[bytes] = []
        try:
            for record in branch:
                self._connect(record)
                connected.append(record.hash)
        except ValidationError:
            # The failed block and the branch above it never connect.
            for record in branch[len(connected):]:
                record.invalid = True
            # Roll back whatever connected, then replay the old branch.
            for _ in connected:
                self._undo_block(self._pop())
            for record in reversed(rollback):
                self._connect(record)
            raise

        for record in branch:
            self._notify(record.block, record.height)
        return AddBlockResult(
            status="active", reorged=True,
            disconnected=tuple(disconnected), connected=tuple(connected),
        )

    def _heights(self, txid: bytes) -> Optional[list[int]]:
        """The active heights carrying ``txid``, indexing up to the tip."""
        tx_heights = self._tx_heights
        for height in range(self._indexed + 1, len(self._active)):
            for tx in self._records[self._active[height]].block.transactions:
                tx_heights.setdefault(tx.txid, []).append(height)
        self._indexed = len(self._active) - 1
        return tx_heights.get(txid)

    def _pop(self) -> BlockRecord:
        """Take the tip off the active chain, and out of the index if it
        is in it."""
        record = self._records[self._active.pop()]
        if record.height <= self._indexed:
            for tx in record.block.transactions:
                heights = self._tx_heights[tx.txid]
                heights.pop()
                if not heights:
                    del self._tx_heights[tx.txid]
            self._indexed = record.height - 1
        return record

    def _connect(self, record: BlockRecord) -> None:
        """Put ``record``'s block on the active tip: validate it the first
        time, then replay its delta (a function of the block and the
        ancestry its hash commits to) through the checked ``apply_delta``."""
        if record.spent is None:
            self.last_report = self.engine.connect_block(
                record.block, self.utxos, record.height)
            record.spent = self.last_report.delta[0]
        else:
            self.utxos.apply_delta(record.spent, record.added)
            record.added = None
        self._active.append(record.hash)

    def _undo_block(self, record: BlockRecord) -> None:
        """Revert ``record``'s delta, keeping what it created for a replay."""
        txs = record.block.transactions
        record.added = self.utxos.revert_delta(
            record.spent, [op for tx in txs for op in tx.outpoints],
            (tx_input.outpoint for tx in txs for tx_input in tx.inputs))

    def _notify(self, block: Block, height: int) -> None:
        for listener in self._listeners:
            listener(block, height)
