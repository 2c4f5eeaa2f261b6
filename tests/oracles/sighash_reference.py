"""The classic SIGHASH_ALL construction: the reference for
:meth:`~repro.blockchain.transaction.Transaction.sighash`.

A copy of the transaction is built with every input's scriptSig blanked
except the signed input's, which is replaced by the locking script being
spent; the digest is the double SHA-256 of that copy's wire form followed
by the 4-byte hash type.  The method serializes the modified inputs into
the preimage without building a transaction; this builds one, through
the constructor's checks and its own wire form.
"""

from __future__ import annotations

import struct
from dataclasses import replace

from repro.blockchain.transaction import SIGHASH_ALL, Transaction
from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError
from repro.script.script import Script


def classic_sighash(tx: Transaction, input_index: int,
                    locking_script: Script) -> bytes:
    """The digest input ``input_index``'s signature commits to."""
    if not 0 <= input_index < len(tx.inputs):
        raise ValidationError(
            f"input index {input_index} out of range "
            f"(transaction has {len(tx.inputs)} inputs)"
        )
    modified_inputs = [
        replace(tx_input,
                script_sig=locking_script if i == input_index else Script())
        for i, tx_input in enumerate(tx.inputs)
    ]
    preimage = Transaction(
        inputs=modified_inputs,
        outputs=tx.outputs,
        locktime=tx.locktime,
        version=tx.version,
    ).serialize() + struct.pack("<I", SIGHASH_ALL)
    return double_sha256(preimage)
