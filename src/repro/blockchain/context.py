"""Bridges transactions to the script interpreter.

:class:`TransactionContext` implements the interpreter's
``ExecutionContext`` protocol for one input of one spending transaction:
``OP_CHECKSIG`` verifies an ECDSA signature over the input's sighash, and
``OP_CHECKLOCKTIMEVERIFY`` applies BIP-65 semantics against the spending
transaction's ``locktime``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.sigbatch import VerdictMemo
from repro.blockchain.transaction import (LOCKTIME_THRESHOLD, SEQUENCE_FINAL,
                                          Transaction)
from repro.script.script import Script

__all__ = ["TransactionContext"]


@dataclass
class TransactionContext:
    """Execution context for verifying ``tx.inputs[input_index]``.

    The two optional fields are the engine's fast path
    (:mod:`repro.blockchain.sigbatch`): ``sighash_hint`` is this input's
    precomputed SIGHASH_ALL digest (against ``locking_script``), and
    ``verdict_memo`` holds the ``(pubkey_bytes, digest, sig_bytes)``
    verdicts already computed — by :func:`repro.crypto.ecdsa.verify_batch`
    for this flush, or by any earlier check through the same memo.
    Both are pure accelerations: a missing hint or memo entry falls
    back to the exact computation they replace (whose verdict the memo
    then keeps); a context built without a memo starts an empty one.
    """

    tx: Transaction
    input_index: int
    locking_script: Script
    sighash_hint: Optional[bytes] = None
    verdict_memo: VerdictMemo = field(default_factory=VerdictMemo)

    def check_ecdsa_signature(self, pubkey: bytes, signature: bytes) -> bool:
        """Verify a compact 64-byte signature over this input's sighash."""
        digest = self.sighash_hint
        if digest is None:
            digest = self.tx.sighash(self.input_index, self.locking_script)
        return self.verdict_memo.check_ecdsa(pubkey, digest, signature)

    def check_locktime(self, required: int) -> bool:
        """BIP-65: the spending tx must itself be locked at least as far.

        Three conditions: the locktime *types* (height vs timestamp) must
        match, the spending transaction's locktime must be >= the script's
        requirement, and the input must not be final (a final sequence
        disables locktime entirely, which would bypass the check).
        """
        tx_locktime = self.tx.locktime
        required_is_height = required < LOCKTIME_THRESHOLD
        tx_is_height = tx_locktime < LOCKTIME_THRESHOLD
        if required_is_height != tx_is_height:
            return False
        if tx_locktime < required:
            return False
        if self.tx.inputs[self.input_index].sequence == SEQUENCE_FINAL:
            return False
        return True
