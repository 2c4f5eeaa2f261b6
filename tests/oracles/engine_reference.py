"""Input-at-a-time script verification: the reference for the batch engine.

:class:`~repro.blockchain.engine.ValidationEngine` verifies a block's (or
an admission's) inputs as one batch over its verdict memo.  This reference
verifies them the plain way: every input straight through the
interpreter, one at a time, in block order, remembering its own successes
in a private set.  It reads no :class:`~repro.blockchain.sigbatch.VerdictMemo`
(each interpreter context starts an empty one) and no batch-layer hint, so
none of its answers can come from the machinery it is compared against.

It keeps the engine's counters: lookups go to ``engine.cache_stats``
(``hits`` answered by the set, ``misses`` that ran the interpreter), and it
runs the engine's fast-reject (``engine.policy.precheck_spend``, which
counts its rejections) with the same error texts.
"""

from __future__ import annotations

from repro.blockchain.block import Block
from repro.blockchain.context import TransactionContext
from repro.blockchain.engine import ValidationEngine
from repro.blockchain.params import COINBASE_REWARD
from repro.blockchain.transaction import Transaction
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError
from repro.script.interpreter import ScriptInterpreter
from tests.oracles.utxo_reference import apply_transaction


class EngineReference:
    """One engine's reference verifier, with its own set of successes."""

    def __init__(self, engine: ValidationEngine) -> None:
        self.engine = engine
        self._verified: set[tuple[bytes, int, bytes]] = set()

    def verify_input_script(self, tx: Transaction, index: int,
                            entry: UTXOEntry) -> None:
        """Run one input, unless its success is remembered; raises
        :class:`ValidationError` on failure (never remembered)."""
        engine = self.engine
        key = (tx.txid, index, entry.entry_hash)
        if key in self._verified:
            engine.cache_stats.hits += 1
            return
        unlocking = tx.inputs[index].script_sig
        locking = entry.output.script_pubkey
        reason = engine.policy.precheck_spend(unlocking, locking)
        if reason is not None:
            raise ValidationError(
                f"script fast-reject for input {index} of "
                f"{tx.txid.hex()[:16]}..: {reason}")
        engine.cache_stats.misses += 1
        interpreter = ScriptInterpreter(context=TransactionContext(
            tx=tx, input_index=index, locking_script=locking))
        if not interpreter.verify(unlocking, locking):
            raise ValidationError(
                f"script verification failed for input {index} of "
                f"{tx.txid.hex()[:16]}.. "
                f"(locking: {locking.disassemble()})")
        self._verified.add(key)

    def verify_input_scripts(self, tx: Transaction,
                             entries: list[UTXOEntry]) -> None:
        """Every input in order; the executions are
        ``engine.cache_stats.misses``."""
        for index, entry in enumerate(entries):
            self.verify_input_script(tx, index, entry)

    def connect_block(self, block: Block, utxos: UTXOSet,
                      height: int) -> int:
        """``connect_block`` the plain way: per transaction, the
        contextual check, then every input's scripts, then apply, against
        an overlay committed at the end.  Returns the block's fees; the
        script work is in ``engine.cache_stats``."""
        engine = self.engine
        view = UTXOView(utxos)
        total_fees = 0
        for tx in block.transactions:
            total_fees += engine._check_resolved_inputs(
                tx, [view.get(tx_input.outpoint) for tx_input in tx.inputs],
                height)
            if not tx.is_coinbase:
                self.verify_input_scripts(
                    tx, [view.get(tx_input.outpoint)
                         for tx_input in tx.inputs])
            apply_transaction(view, tx, height)
        max_coinbase = COINBASE_REWARD + total_fees
        if block.coinbase.total_output_value > max_coinbase:
            raise ValidationError(
                f"coinbase claims {block.coinbase.total_output_value}, "
                f"max is {max_coinbase}")
        view.commit()
        return total_fees
