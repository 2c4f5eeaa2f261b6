"""The staged validation engine.

One :class:`ValidationEngine` instance serves one chain view.  It runs the
three validation stages — *syntax* (context-free), *contextual* (against a
UTXO source and chain position), *scripts* (interpreter execution).  An
input's script verdict is kept in the engine's
:class:`~repro.blockchain.sigbatch.VerdictMemo`, keyed by ``(txid,
input_index, utxo_entry_hash)``, successes only: a transaction whose
scripts ran at mempool admission is not run again when its block connects
(the paper's Fig. 6 regime), and on a memo a deployment shares, a script
one daemon has run is not run by the next.

Block connection validates against a copy-on-write
:class:`~repro.blockchain.utxo.UTXOView` instead of mutating the live set:
on success the overlay commits in one step and its delta is returned, on
failure it is discarded — there is nothing to roll back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockchain.block import Block
from repro.blockchain.checkpoint import Checkpoint, iter_checkpoints
from repro.blockchain.context import TransactionContext
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.sigbatch import VerdictMemo, precompute_verdicts
from repro.blockchain.transaction import Transaction
from repro.blockchain.utxo import UTXODelta, UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError
from repro.script.analysis import StandardnessPolicy
from repro.script.interpreter import ScriptInterpreter
from repro.script.script import Script

__all__ = [
    "MAX_MONEY",
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
    "ScriptCacheStats",
    "ValidationEngine",
    "ValidationReport",
]

MAX_MONEY = 21_000_000 * 100_000_000

# Stable machine-readable rejection codes of transaction admission
# (``AcceptResult.reason_code``).  Callers branch on these; the reason
# text stays human-diagnostic prose.  The contextual stage raises its
# three on ``ValidationError.code``.
REJECT_DUPLICATE = "duplicate"
REJECT_COINBASE = "coinbase"
REJECT_SYNTAX = "syntax"
REJECT_CHECKPOINT = "checkpoint"
REJECT_CONFLICT = "conflict"
REJECT_NONSTANDARD = "nonstandard"
REJECT_MISSING_INPUTS = "missing-inputs"
REJECT_IMMATURE = "immature"
REJECT_VALUE = "value"
REJECT_NON_FINAL = "non-final"
REJECT_SCRIPT = "script"

@dataclass
class ScriptCacheStats:
    """One engine's own script-verdict lookups: ``hits`` answered by the
    verdict memo, ``misses`` that ran the interpreter (failures too)."""

    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class ValidationReport:
    """What one block connect produced that nothing else holds: the fees
    the coinbase may claim, and the UTXO delta it committed, which the
    chain keeps to revert and replay the block in reorgs.  The script
    work is ``cache_stats``' to count."""

    total_fees: int
    delta: UTXODelta


class _ScriptBatch:
    """Deferred script verifications for one block or one admission.

    The engine queues every input the verdict memo does not hold as a
    success while it walks transactions in block order, then
    :meth:`flush` runs the whole queue through the cross-input batch
    layer.  Determinism contract with verifying one input at a time,
    straight through the interpreter (``tests/oracles/engine_reference.py``):

    * memo lookups and fast-reject prechecks happen at queue time, in block
      order, so hit/fast-reject accounting is identical;
    * a flush raises the exact :class:`ValidationError` the *first*
      failing input would have raised;
    * only successes that precede that first failure are stored, and
      every execution before it, the failing one included, is a miss.

    On a memo no other engine writes, hits and misses equal the
    reference's; on a shared one a hit may be another engine's success,
    which is the verdict this engine's interpreter would reach.

    ``barrier(exc)`` is the ordering glue for non-script errors: any
    contextual or fast-reject failure discovered at position *p* must
    lose to a script failure queued at a position before *p* — exactly
    what a run that executes scripts as it goes would report.
    """

    def __init__(self, engine: "ValidationEngine") -> None:
        self.engine = engine
        # (tx, input_index, entry) in block order.
        self.queue: list[tuple[Transaction, int, UTXOEntry]] = []

    def add(self, tx: Transaction, index: int, entry: UTXOEntry) -> None:
        """Queue one input, honouring memo and precheck in block order."""
        engine = self.engine
        if engine.verdict_memo.script_succeeded(tx.txid, index,
                                                entry.entry_hash):
            engine.cache_stats.hits += 1
            return
        reason = engine.policy.precheck_spend(
            tx.inputs[index].script_sig, entry.output.script_pubkey
        )
        if reason is not None:
            # Every queued input precedes this one, so an earlier
            # queued *failure* must win — barrier decides.
            self.barrier(ValidationError(
                f"script fast-reject for input {index} of "
                f"{tx.txid.hex()[:16]}..: {reason}"
            ))
        self.queue.append((tx, index, entry))

    def flush(self) -> None:
        """Run the queue; store pre-failure successes; raise the first
        failure in block order.

        One :func:`~repro.blockchain.sigbatch.precompute_verdicts` pass
        computes every input's sighash and batch-verifies the recognizable
        CHECKSIG spends the engine's verdict memo does not know yet; the
        interpreter then replays each script pair with those results as
        pure accelerations, so verdicts match the unbatched path
        bit-for-bit.
        """
        queue, self.queue = self.queue, []
        if not queue:
            return
        engine = self.engine
        memo = engine.verdict_memo
        hints = precompute_verdicts(
            [(tx, index, entry.output.script_pubkey)
             for tx, index, entry in queue], memo)
        for tx, index, entry in queue:
            locking = entry.output.script_pubkey
            # A miss is counted before executing, so the failing run is
            # a miss too (never stored).
            engine.cache_stats.misses += 1
            interpreter = engine._interpreter(tx, index, locking,
                                              hints[(tx.txid, index)])
            if not interpreter.verify(tx.inputs[index].script_sig, locking):
                raise ValidationError(
                    f"script verification failed for input {index} of "
                    f"{tx.txid.hex()[:16]}.. "
                    f"(locking: {locking.disassemble()})"
                )
            memo.store_script_success(tx.txid, index, entry.entry_hash)

    def barrier(self, exc: ValidationError) -> None:
        """Flush, then raise ``exc`` — unless an already-queued script
        failure precedes it in block order (flush raises that instead)."""
        self.flush()
        raise exc


class ValidationEngine:
    """Staged validation whose script verdicts live in its verdict memo.

    :param params: consensus parameters of the chain being validated.
    :param verify_scripts: whether block connection re-checks scripts
        (the Fig. 5 / Fig. 6 toggle); defaults to
        ``params.verify_blocks``.  Mempool admission always verifies.

    ``policy`` is the mempool's standardness check and, before each
    interpreter execution, the consensus-safe fast-reject: it only
    rejects spends whose execution fails whatever the data, so it
    changes where the cost is paid, never a verdict.

    ``verdict_memo`` is the engine's
    :class:`~repro.blockchain.sigbatch.VerdictMemo`: the script successes
    and the ECDSA verdicts its interpreter runs have computed.  Private
    by default; a deployment that simulates many daemons in one process
    assigns them all the same memo.
    ``cache_stats`` counts this engine's own lookups in it.
    """

    def __init__(self, params: ChainParams,
                 verify_scripts: Optional[bool] = None) -> None:
        self.params = params
        self.verify_scripts = (
            params.verify_blocks if verify_scripts is None else verify_scripts
        )
        self.policy = StandardnessPolicy()
        self.cache_stats = ScriptCacheStats()
        self.verdict_memo = VerdictMemo()
        # Optional repro.blockchain.checkpoint.CheckpointRules.  Set only
        # on a settlement-chain engine; gateway sub-chains leave it None
        # and pay a single attribute load per transaction.
        self.checkpoint_rules = None
        # Optional repro.blockchain.pos.StakeRegistry: the slot-leader
        # rule every block of a proof-of-stake chain must pass.
        self.leader_rule = None

    # -- stage 1: syntax -------------------------------------------------------

    def check_transaction_syntax(self, tx: Transaction) -> None:
        """Context-free sanity checks on a transaction."""
        seen = set()
        for tx_input in tx.inputs:
            if tx_input.outpoint in seen:
                raise ValidationError(
                    f"duplicate input {tx_input.outpoint} in "
                    f"{tx.txid.hex()[:16]}.."
                )
            seen.add(tx_input.outpoint)
        if not tx.is_coinbase:
            for tx_input in tx.inputs:
                if tx_input.outpoint.is_coinbase:
                    raise ValidationError(
                        "non-coinbase transaction has a null input"
                    )
        total = 0
        for output in tx.outputs:
            if output.value > MAX_MONEY:
                raise ValidationError(
                    f"output value too large: {output.value}"
                )
            total += output.value
            if total > MAX_MONEY:
                raise ValidationError(f"total output value too large: {total}")

    # -- stage 2: contextual ---------------------------------------------------

    def _check_resolved_inputs(self, tx: Transaction,
                               entries: list[Optional[UTXOEntry]],
                               height: int) -> int:
        """Contextual checks of ``tx`` at ``height`` over its inputs'
        entries, resolved by the caller (block connect: its overlay;
        admission: chain plus pool; ``None`` where missing).  Per input,
        missing before maturity; then the value balance.  Returns the
        fee; each refusal carries its ``REJECT_*`` code."""
        if tx.is_coinbase:
            return 0
        maturity = self.params.coinbase_maturity
        input_value = 0
        for tx_input, entry in zip(tx.inputs, entries):
            if entry is None:
                raise ValidationError(
                    f"input {tx_input.outpoint} not in UTXO set "
                    f"(spent or never existed)", code=REJECT_MISSING_INPUTS
                )
            if entry.is_coinbase and height - entry.height < maturity:
                raise ValidationError(
                    f"coinbase output {tx_input.outpoint} spent at height "
                    f"{height}, matures at {entry.height + maturity}",
                    code=REJECT_IMMATURE
                )
            input_value += entry.value
        if input_value < tx.total_output_value:
            raise ValidationError(
                f"outputs ({tx.total_output_value}) exceed inputs "
                f"({input_value})", code=REJECT_VALUE
            )
        return input_value - tx.total_output_value

    # -- stage 3: scripts ------------------------------------------------------

    def _interpreter(self, tx: Transaction, index: int, locking: Script,
                     sighash_hint: Optional[bytes],
                     ) -> ScriptInterpreter:
        """An interpreter for one input, wired to the verdict memo."""
        return ScriptInterpreter(context=TransactionContext(
            tx=tx, input_index=index, locking_script=locking,
            sighash_hint=sighash_hint, verdict_memo=self.verdict_memo,
        ))

    def verify_input_scripts(self, tx: Transaction,
                             entries: list[UTXOEntry]) -> None:
        """Verify every input against its resolved entry.

        The mempool's admission path: the inputs go through the
        cross-input batch layer as one batch, with the verdict, error
        message and memo state of verifying them one at a time.
        """
        batch = _ScriptBatch(self)
        for index, entry in enumerate(entries):
            batch.add(tx, index, entry)
        batch.flush()

    # -- anchor-chain checkpoint rules -----------------------------------------

    def check_checkpoints(self, tx: Transaction) -> None:
        """Validate any checkpoint commitments ``tx`` carries.

        A no-op unless :class:`CheckpointRules` are attached (i.e. this
        engine validates the settlement chain).
        """
        if self.checkpoint_rules is None:
            return
        for checkpoint in iter_checkpoints(tx):
            self.checkpoint_rules.check(checkpoint, tx.txid)

    def _stage_checkpoints(self, tx: Transaction,
                           pending: dict[int, "Checkpoint"],
                           txids: list[bytes]) -> None:
        """Stage ``tx``'s checkpoints against committed + staged state."""
        staged = False
        for checkpoint in iter_checkpoints(tx):
            self.checkpoint_rules.stage(checkpoint, tx.txid, pending)
            staged = True
        if staged:
            txids.append(tx.txid)

    # -- block stages ----------------------------------------------------------

    def check_block(self, block: Block, prev_height: int) -> None:
        """Structural block checks (independent of the UTXO set)."""
        if block.serialized_size() > self.params.max_block_size:
            raise ValidationError(
                f"block size {block.serialized_size()} exceeds limit "
                f"{self.params.max_block_size}"
            )
        if block.compute_merkle_root() != block.header.merkle_root:
            raise ValidationError("merkle root mismatch")
        if not block.transactions[0].is_coinbase:
            raise ValidationError("first transaction is not a coinbase")
        for tx in block.transactions[1:]:
            if tx.is_coinbase:
                raise ValidationError("block contains a non-first coinbase")
        if self.leader_rule is not None:
            self.leader_rule.check(block, prev_height + 1)
        height = prev_height + 1
        for tx in block.transactions:
            self.check_transaction_syntax(tx)
            if not tx.is_final(height, block.header.timestamp):
                raise ValidationError(
                    f"transaction {tx.txid.hex()[:16]}.. is not final at "
                    f"height {height}"
                )

    def connect_block(self, block: Block, utxos: UTXOSet,
                      height: int) -> ValidationReport:
        """Validate and apply a block's transactions atomically.

        All work happens against a :class:`UTXOView` overlay; ``utxos`` is
        only touched by the final commit, so any :class:`ValidationError`
        leaves it bit-for-bit untouched with no rollback work.
        """
        view = UTXOView(utxos)
        total_fees = 0
        batch = _ScriptBatch(self)
        # Block-scoped checkpoint staging: applied to the rules only when
        # the block commits, so a failed connect leaves the anchored state
        # untouched.
        pending_checkpoints: dict[int, Checkpoint] = {}
        checkpoint_txids: list[bytes] = []
        for tx in block.transactions:
            # Each spent outpoint is looked up once: the resolved entries
            # serve the contextual checks, the script batch and the spend.
            entries = view.resolve(tx)
            # Script execution is deferred to the flush below.  A
            # contextual failure must still lose to a script failure
            # queued before it, hence the barrier.
            try:
                if self.checkpoint_rules is not None:
                    self._stage_checkpoints(
                        tx, pending_checkpoints, checkpoint_txids)
                total_fees += self._check_resolved_inputs(tx, entries,
                                                          height)
            except ValidationError as exc:
                batch.barrier(exc)
            if self.verify_scripts:
                for index, entry in enumerate(entries):
                    batch.add(tx, index, entry)
            view.apply_resolved(tx, entries, height)
        batch.flush()
        coinbase_value = block.coinbase.total_output_value
        max_coinbase = COINBASE_REWARD + total_fees
        if coinbase_value > max_coinbase:
            raise ValidationError(
                f"coinbase claims {coinbase_value}, max is {max_coinbase}"
            )
        delta = view.commit()
        if self.checkpoint_rules is not None:
            self.checkpoint_rules.apply(pending_checkpoints, checkpoint_txids)
        return ValidationReport(total_fees=total_fees, delta=delta)
