"""The staged validation engine.

One :class:`ValidationEngine` instance serves one chain view.  It runs the
three validation stages — *syntax* (context-free), *contextual* (against a
UTXO source and chain position), *scripts* (interpreter execution) — and
owns the script-verification cache that makes the paper's Fig. 6 regime
affordable: a transaction whose scripts were executed at mempool admission
is never re-executed when its block connects, because both stages share
the cache keyed by ``(txid, input_index, utxo_entry_hash)``.

Block connection validates against a copy-on-write
:class:`~repro.blockchain.utxo.UTXOView` instead of mutating the live set:
on success the overlay commits in one step, on failure it is discarded —
there is no undo path to run and nothing to roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.blockchain.block import Block
from repro.blockchain.checkpoint import Checkpoint, iter_checkpoints
from repro.blockchain.context import TransactionContext
from repro.blockchain.params import ChainParams
from repro.blockchain.sigbatch import VerdictMemo, precompute_verdicts
from repro.blockchain.transaction import OutPoint, Transaction
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError
from repro.script.analysis import StandardnessPolicy
from repro.script.interpreter import ScriptInterpreter
from repro.script.script import Script

__all__ = [
    "MAX_MONEY",
    "ScriptCacheStats",
    "ValidationEngine",
    "ValidationReport",
]

MAX_MONEY = 21_000_000 * 100_000_000

UTXOSource = Union[UTXOSet, UTXOView]


@dataclass
class ScriptCacheStats:
    """Hit/miss counters of one engine's script-verification cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def executions(self) -> int:
        """Scripts actually run (every miss executes the interpreter)."""
        return self.misses

    def snapshot(self) -> "ScriptCacheStats":
        return ScriptCacheStats(hits=self.hits, misses=self.misses,
                                evictions=self.evictions)


@dataclass(frozen=True)
class ValidationReport:
    """What one block connect (or speculative validation) did.

    Consumed by the chain (undo data for reorgs), the node and daemon
    (cache telemetry), and the benchmarks (script-execution accounting).
    """

    block_hash: bytes
    height: int
    tx_count: int
    total_fees: int
    scripts_verified: bool
    script_executions: int
    cache_hits: int
    stages: tuple[str, ...]
    # Per-transaction spent entries, in block order (the undo record).
    undo: tuple[dict[OutPoint, UTXOEntry], ...] = ()


class _ScriptBatch:
    """Deferred script verifications for one block or one admission.

    The engine queues every cache-missing input while it walks
    transactions in block order, then :meth:`flush` runs the whole queue
    through the cross-input batch layer.  Determinism contract with
    input-at-a-time :meth:`ValidationEngine.verify_input_script`:

    * cache lookups and static prechecks happen at queue time, in block
      order, so hit/fast-reject accounting is identical;
    * a flush raises the exact :class:`ValidationError` the *first*
      failing input would have raised;
    * only successes that precede that first failure are cached and
      counted as misses.

    ``barrier(exc)`` is the ordering glue for non-script errors: any
    contextual or fast-reject failure discovered at position *p* must
    lose to a script failure queued at a position before *p* — exactly
    what a run that executes scripts as it goes would report.
    """

    def __init__(self, engine: "ValidationEngine") -> None:
        self.engine = engine
        # (tx, input_index, entry) in block order.
        self.queue: list[tuple[Transaction, int, UTXOEntry]] = []
        self.hits = 0

    def add(self, tx: Transaction, index: int, entry: UTXOEntry) -> None:
        """Queue one input, honouring cache and precheck in block order."""
        engine = self.engine
        if (tx.txid, index, entry.entry_hash) in engine._script_cache:
            engine.cache_stats.hits += 1
            self.hits += 1
            return
        if engine.static_precheck:
            reason = engine.policy.precheck_spend(
                tx.inputs[index].script_sig, entry.output.script_pubkey
            )
            if reason is not None:
                engine.policy.stats.fast_rejects += 1
                # Every queued input precedes this one, so an earlier
                # queued *failure* must win — barrier decides.
                self.barrier(ValidationError(
                    f"script fast-reject for input {index} of "
                    f"{tx.txid.hex()[:16]}..: {reason}"
                ))
        self.queue.append((tx, index, entry))

    def flush(self) -> int:
        """Run the queue; cache pre-failure successes; raise the first
        failure in block order.  Returns the executions that succeeded.

        One :func:`~repro.blockchain.sigbatch.precompute_verdicts` pass
        computes every input's sighash (one serialization per tx) and
        batch-verifies the recognizable CHECKSIG spends the engine's
        verdict memo does not know yet; the interpreter then replays each
        script pair with those results as pure accelerations, so verdicts
        match the unbatched path bit-for-bit.
        """
        queue, self.queue = self.queue, []
        if not queue:
            return 0
        engine = self.engine
        hints = precompute_verdicts(
            [(tx, index, entry.output.script_pubkey)
             for tx, index, entry in queue], engine.verdict_memo)
        executions = 0
        for tx, index, entry in queue:
            locking = entry.output.script_pubkey
            # A miss is counted before executing, so the failing run is
            # a miss too (never cached).
            engine.cache_stats.misses += 1
            interpreter = engine._interpreter(tx, index, locking,
                                              hints[(tx.txid, index)])
            if not interpreter.verify(tx.inputs[index].script_sig, locking):
                raise ValidationError(
                    f"script verification failed for input {index} of "
                    f"{tx.txid.hex()[:16]}.. "
                    f"(locking: {locking.disassemble()})"
                )
            executions += 1
            engine._cache_store((tx.txid, index, entry.entry_hash))
        return executions

    def barrier(self, exc: ValidationError) -> None:
        """Flush, then raise ``exc`` — unless an already-queued script
        failure precedes it in block order (flush raises that instead)."""
        self.flush()
        raise exc


class ValidationEngine:
    """Staged validation with a shared script-verification cache.

    :param params: consensus parameters of the chain being validated.
    :param verify_scripts: whether block connection re-checks scripts
        (the Fig. 5 / Fig. 6 toggle); defaults to
        ``params.verify_blocks``.  Mempool admission always verifies.
    :param max_cache_entries: cache capacity; oldest verdicts evict first
        (insertion order — entries are never revalidated, so recency
        tracking buys nothing over FIFO here).
    :param static_precheck: run the static analyzer's consensus-safe
        fast-reject before each interpreter execution.  The precheck
        only rejects spends whose execution provably fails, so toggling
        it never changes a verdict — only where the cost is paid.

    ``verdict_memo`` is the engine's
    :class:`~repro.blockchain.sigbatch.VerdictMemo`: the ECDSA and
    RSA-pair verdicts its interpreter runs have computed.  Private by
    default; a deployment that simulates many daemons in one process
    assigns them all the same memo.
    """

    def __init__(self, params: ChainParams,
                 verify_scripts: Optional[bool] = None,
                 max_cache_entries: int = 1 << 16,
                 static_precheck: bool = True) -> None:
        self.params = params
        self.verify_scripts = (
            params.verify_blocks if verify_scripts is None else verify_scripts
        )
        self.max_cache_entries = max_cache_entries
        # Shared by the mempool (standardness) and this engine (static
        # fast-reject).
        self.policy = StandardnessPolicy()
        self.static_precheck = static_precheck
        # key -> True; only successful verdicts are cached (failures raise
        # and the offending tx never reaches a later stage twice).
        self._script_cache: dict[tuple[bytes, int, bytes], bool] = {}
        self.cache_stats = ScriptCacheStats()
        self.verdict_memo = VerdictMemo()
        self.last_report: Optional[ValidationReport] = None
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

    def check_transaction_inputs(self, tx: Transaction, utxos: UTXOSource,
                                 height: int) -> int:
        """Contextual checks: inputs exist, maturity, value balance.

        Returns the transaction fee.
        """
        return self._check_resolved_inputs(
            tx, [utxos.get(tx_input.outpoint) for tx_input in tx.inputs],
            height)

    def _check_resolved_inputs(self, tx: Transaction,
                               entries: list[Optional[UTXOEntry]],
                               height: int) -> int:
        """:meth:`check_transaction_inputs` over entries already resolved
        (``None`` where missing), in input order; returns the fee."""
        if tx.is_coinbase:
            return 0
        input_value = 0
        for tx_input, entry in zip(tx.inputs, entries):
            if entry is None:
                raise ValidationError(
                    f"input {tx_input.outpoint} not in UTXO set "
                    f"(spent or never existed)"
                )
            input_value += self._check_entry_spendable(
                tx_input.outpoint, entry, height
            )
        if input_value < tx.total_output_value:
            raise ValidationError(
                f"outputs ({tx.total_output_value}) exceed inputs "
                f"({input_value})"
            )
        return input_value - tx.total_output_value

    def _check_entry_spendable(self, outpoint: OutPoint, entry: UTXOEntry,
                               height: int) -> int:
        """Maturity check for one resolved entry; returns its value."""
        if (entry.is_coinbase
                and height - entry.height < self.params.coinbase_maturity):
            raise ValidationError(
                f"coinbase output {outpoint} spent at height {height}, "
                f"matures at {entry.height + self.params.coinbase_maturity}"
            )
        return entry.value

    # -- stage 3: scripts ------------------------------------------------------

    def verify_input_script(self, tx: Transaction, index: int,
                            entry: UTXOEntry) -> bool:
        """Verify one input against its resolved entry, through the cache.

        Returns True on a cache hit (no interpreter run), False on a miss
        that executed and succeeded; raises :class:`ValidationError` on
        script failure (failures are never cached).
        """
        key = (tx.txid, index, entry.entry_hash)
        if key in self._script_cache:
            self.cache_stats.hits += 1
            return True
        if self.static_precheck:
            reason = self.policy.precheck_spend(
                tx.inputs[index].script_sig, entry.output.script_pubkey
            )
            if reason is not None:
                # Consensus-safe: the interpreter would fail too, so the
                # execution (and its miss) is skipped entirely.
                self.policy.stats.fast_rejects += 1
                raise ValidationError(
                    f"script fast-reject for input {index} of "
                    f"{tx.txid.hex()[:16]}..: {reason}"
                )
        self.cache_stats.misses += 1
        interpreter = self._interpreter(tx, index,
                                        entry.output.script_pubkey)
        if not interpreter.verify(tx.inputs[index].script_sig,
                                  entry.output.script_pubkey):
            raise ValidationError(
                f"script verification failed for input {index} of "
                f"{tx.txid.hex()[:16]}.. "
                f"(locking: {entry.output.script_pubkey.disassemble()})"
            )
        self._cache_store(key)
        return False

    def _interpreter(self, tx: Transaction, index: int, locking: Script,
                     sighash_hint: Optional[bytes] = None,
                     ) -> ScriptInterpreter:
        """An interpreter for one input, wired to the verdict memo."""
        memo = self.verdict_memo
        context = TransactionContext(
            tx=tx, input_index=index, locking_script=locking,
            sighash_hint=sighash_hint, verdict_memo=memo,
        )
        return ScriptInterpreter(context=context,
                                 rsa_pair_check=memo.check_rsa_pair)

    def _cache_store(self, key: tuple[bytes, int, bytes]) -> None:
        """Record a successful verdict, FIFO-evicting at capacity."""
        if len(self._script_cache) >= self.max_cache_entries:
            self._script_cache.pop(next(iter(self._script_cache)))
            self.cache_stats.evictions += 1
        self._script_cache[key] = True

    def verify_input_scripts(self, tx: Transaction,
                             entries: list[UTXOEntry]) -> int:
        """Verify every input against its resolved entry; returns executions.

        The mempool's admission path: the inputs go through the
        cross-input batch layer as one batch, with the verdict, error
        message, and cache state of a :meth:`verify_input_script` loop.
        """
        batch = _ScriptBatch(self)
        for index, entry in enumerate(entries):
            batch.add(tx, index, entry)
        return batch.flush()

    def verify_transaction_scripts(self, tx: Transaction,
                                   utxos: UTXOSource) -> int:
        """Run (or recall) every input's script pair; returns executions."""
        if tx.is_coinbase:
            return 0
        executions = 0
        for index, tx_input in enumerate(tx.inputs):
            entry = utxos.get(tx_input.outpoint)
            if entry is None:
                raise ValidationError(
                    f"input {tx_input.outpoint} not in UTXO set"
                )
            if not self.verify_input_script(tx, index, entry):
                executions += 1
        return executions

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
        if not block.header.meets_target(self.params.pow_bits):
            raise ValidationError(
                f"block {block.hash.hex()[:16]}.. does not meet the "
                f"{self.params.pow_bits}-bit proof-of-work target"
            )
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

    def connect_block(self, block: Block, utxos: UTXOSource, height: int,
                      verify_scripts: Optional[bool] = None,
                      commit: bool = True) -> ValidationReport:
        """Validate and apply a block's transactions atomically.

        All work happens against a :class:`UTXOView` overlay; ``utxos`` is
        only touched by the final commit, so any :class:`ValidationError`
        leaves it bit-for-bit untouched with no rollback work.  Pass
        ``commit=False`` for purely speculative validation (the overlay is
        discarded even on success).

        ``verify_scripts`` overrides the engine default for this call —
        the chain uses that to skip re-verification when restoring a
        previously validated branch after a failed reorg.
        """
        if verify_scripts is None:
            verify_scripts = self.verify_scripts
        view = UTXOView(utxos)
        undo: list[dict[OutPoint, UTXOEntry]] = []
        total_fees = 0
        batch = _ScriptBatch(self)
        # Block-scoped checkpoint staging: applied to the rules only when
        # the block commits, so speculative and failed connects leave the
        # anchored state untouched.
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
            if verify_scripts:
                for index, entry in enumerate(entries):
                    batch.add(tx, index, entry)
            undo.append(view.apply_resolved(tx, entries, height))
        executions = batch.flush()
        coinbase_value = block.coinbase.total_output_value
        max_coinbase = self.params.coinbase_reward + total_fees
        if coinbase_value > max_coinbase:
            raise ValidationError(
                f"coinbase claims {coinbase_value}, max is {max_coinbase}"
            )
        if commit:
            view.commit()
            if self.checkpoint_rules is not None:
                self.checkpoint_rules.apply(pending_checkpoints,
                                            checkpoint_txids)
        report = ValidationReport(
            block_hash=block.hash,
            height=height,
            tx_count=len(block.transactions),
            total_fees=total_fees,
            scripts_verified=verify_scripts,
            script_executions=executions,
            cache_hits=batch.hits,
            stages=("syntax", "contextual", "scripts", "connect")
            if verify_scripts
            else ("syntax", "contextual", "connect"),
            undo=tuple(undo),
        )
        self.last_report = report
        return report

    # -- speculative helpers ---------------------------------------------------

    def speculative_fees(self, transactions: list[Transaction],
                         utxos: UTXOSource, height: int) -> int:
        """Total fees of an ordered batch, validated against an overlay.

        The miner's template assembly: dependencies inside the batch
        resolve through the overlay as each transaction applies, and the
        live set is never touched.
        """
        view = UTXOView(utxos)
        total = 0
        for tx in transactions:
            entries = view.resolve(tx)
            total += self._check_resolved_inputs(tx, entries, height)
            view.apply_resolved(tx, entries, height)
        return total

    def conflicts(self, first: Transaction, second: Transaction,
                  utxos: UTXOSource, height: int) -> bool:
        """Whether ``second`` becomes unspendable once ``first`` applies.

        The double-spend probe: both orders of a conflicting pair fail the
        contextual stage on whichever transaction comes second, and the
        probe costs one overlay, not a UTXO-set clone.
        """
        view = UTXOView(utxos)
        view.apply_transaction(first, height)
        try:
            self.check_transaction_inputs(second, view, height)
        except ValidationError:
            return True
        return False

    # -- cache management ------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._script_cache)
