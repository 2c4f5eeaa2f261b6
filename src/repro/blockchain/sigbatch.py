"""Cross-input ECDSA batching and the deployment's verdict memo.

The throughput engine's batch layer.  Given the ``(tx, input_index,
locking_script)`` triples a block (or one multi-input admission) is about
to verify, this module statically recognizes the spends whose signature
check is a plain ECDSA verify — a p2pkh or CLTV-guarded-p2pkh locking
script spent by a push-only ``<sig> <pubkey>`` unlocking script — and
front-loads their expensive work:

* every input's SIGHASH_ALL digest is computed once, through
  :meth:`~repro.blockchain.transaction.Transaction.sighash`;
* the recognized ``(pubkey, digest, signature)`` triples the
  :class:`VerdictMemo` does not know yet go through
  :func:`repro.crypto.ecdsa.verify_batch`, which runs the same
  verification core as ``PublicKey.verify`` and batches the modular
  inversions.

The interpreter still executes every opcode of every script it runs —
the precomputed digests and memoised verdicts reach it through
:class:`~repro.blockchain.context.TransactionContext` as pure
accelerations, so verdicts, error strings, and side effects are
bit-identical to the unbatched, unmemoised path (``verify_batch`` itself
is verdict-identical to ``PublicKey.verify``).  Which inputs it runs at
all is the memo's second kind: an input whose script pair already
succeeded is not run again.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.blockchain.transaction import Transaction
from repro.crypto import ecdsa
from repro.obs.registry import Counted, Keyed
from repro.script.analysis import (
    OUTPUT_CLTV_GUARDED,
    OUTPUT_P2PKH,
    classify_output,
)
from repro.script.script import Script

__all__ = ["ECDSA", "SCRIPT", "VerdictMemo", "extract_checksig_spend",
           "precompute_verdicts"]

#: Memo key tags: ``(ECDSA, pubkey_bytes, sighash, signature_bytes)`` and
#: ``(SCRIPT, txid, input_index, entry_hash)``.
ECDSA = "ecdsa"
SCRIPT = "script"

#: Locking shapes whose single OP_CHECKSIG consumes exactly the two
#: pushes of a ``<sig> <pubkey>`` unlocking script.
_CHECKSIG_SHAPES = (OUTPUT_P2PKH, OUTPUT_CLTV_GUARDED)


class VerdictMemo(Counted):
    """FIFO-bounded memo of pure verification verdicts, two kinds.

    An ECDSA verification is a pure function of the bytes in its key, so
    a stored verdict — True or False — is the verdict, whichever engine
    asks.  A script verdict is a pure function of the transaction's bytes
    (its txid), the input index and the spent output (its
    ``entry_hash``); only successes are stored, so a spend that fails
    runs, and is refused with the same message, on every engine that
    meets it.  Every :class:`~repro.blockchain.engine.ValidationEngine`
    owns a private memo; :class:`~repro.core.network.BcWANNetwork` hands
    all its nodes one, so the host runs each script, and verifies each
    signature, once per deployment instead of once per simulated daemon
    (whose verification *time* the cost model charges in simulated
    seconds either way).

    ``misses`` counts verdicts computed and stored (for scripts: the
    successful executions), ``hits`` lookups answered by an earlier one,
    ``evictions`` entries dropped at the bound — each per kind; the
    bound is shared by both.  A verdict the batch layer computes ahead of
    the interpreter (``prefetched``) is the miss it was; its first read
    is not a hit.
    """

    COUNTERS = {field: Keyed(field, "kind")
                for field in ("hits", "misses", "evictions")}
    GAUGES = {"entries": len}
    # Verdicts held before the oldest is evicted; a test that needs a
    # tighter bound sets it on the instance.
    MAX_ENTRIES = 1 << 14

    def __init__(self) -> None:
        self._verdicts: dict[tuple, bool] = {}
        self._prefetched: set[tuple] = set()
        self.hits = {ECDSA: 0, SCRIPT: 0}
        self.misses = {ECDSA: 0, SCRIPT: 0}
        self.evictions = {ECDSA: 0, SCRIPT: 0}

    def __len__(self) -> int:
        return len(self._verdicts)

    def __contains__(self, key: tuple) -> bool:
        return key in self._verdicts

    def get(self, key: tuple) -> Optional[bool]:
        """The stored verdict for ``key``, or None."""
        verdict = self._verdicts.get(key)
        if verdict is not None:
            if key in self._prefetched:
                self._prefetched.discard(key)
            else:
                self.hits[key[0]] += 1
        return verdict

    def put(self, key: tuple, verdict: bool, prefetched: bool = False) -> None:
        """Record a verdict just computed, evicting the oldest at the bound."""
        if len(self._verdicts) >= self.MAX_ENTRIES:
            oldest = next(iter(self._verdicts))
            del self._verdicts[oldest]
            self._prefetched.discard(oldest)
            self.evictions[oldest[0]] += 1
        self._verdicts[key] = verdict
        self.misses[key[0]] += 1
        if prefetched:
            self._prefetched.add(key)

    def check_ecdsa(self, pubkey: bytes, digest: bytes,
                    signature: bytes) -> bool:
        """Whether compact ``signature`` over ``digest`` verifies under
        SEC1 ``pubkey``, through the memo.  Unparseable material is False
        (and not stored: nothing was verified)."""
        key = (ECDSA, pubkey, digest, signature)
        verdict = self.get(key)
        if verdict is None:
            # A stored verdict was computed from these very bytes, so
            # only a miss has to parse them.
            try:
                public_key = ecdsa.PublicKey.from_bytes(pubkey)
                parsed = ecdsa.Signature.from_bytes(signature)
            except ecdsa.ECDSAError:
                return False
            verdict = public_key.verify(digest, parsed)
            self.put(key, verdict)
        return verdict

    def script_succeeded(self, txid: bytes, input_index: int,
                         entry_hash: bytes) -> bool:
        """Whether input ``input_index`` of ``txid``, spending the output
        ``entry_hash`` digests, is a stored script success."""
        return bool(self.get((SCRIPT, txid, input_index, entry_hash)))

    def store_script_success(self, txid: bytes, input_index: int,
                             entry_hash: bytes) -> None:
        """Record that the input's script pair just succeeded."""
        self.put((SCRIPT, txid, input_index, entry_hash), True)


def extract_checksig_spend(script_sig: Script,
                           locking: Script) -> Optional[tuple[bytes, bytes]]:
    """``(pubkey, signature)`` if this spend is a recognizable CHECKSIG.

    Returns None for anything the static view cannot pin down (multisig,
    key-release scripts, non-push unlocking data) — those inputs simply
    verify at interpreter speed.
    """
    elements = script_sig.elements
    if len(elements) != 2:
        return None
    signature, pubkey = elements
    if not (isinstance(signature, bytes) and len(signature) == 64):
        return None
    if not (isinstance(pubkey, bytes) and len(pubkey) == 33):
        return None
    if classify_output(locking) not in _CHECKSIG_SHAPES:
        return None
    return pubkey, signature


def precompute_verdicts(
    spends: Sequence[tuple[Transaction, int, Script]],
    memo: VerdictMemo,
) -> dict[tuple[bytes, int], bytes]:
    """Precompute sighash digests and ECDSA verdicts for a spend batch.

    Returns ``hints``, mapping ``(txid, input_index)`` to the input's
    SIGHASH_ALL digest, and leaves in ``memo`` the verdict of every
    recognizable CHECKSIG spend: triples it already holds are skipped,
    the rest are batch-verified and stored.
    """
    hints = {(tx.txid, input_index): tx.sighash(input_index, locking)
             for tx, input_index, locking in spends}
    keys: list[tuple] = []
    items: list[tuple[ecdsa.PublicKey, bytes, ecdsa.Signature]] = []
    for tx, input_index, locking in spends:
        extracted = extract_checksig_spend(tx.inputs[input_index].script_sig,
                                           locking)
        if extracted is None:
            continue
        pubkey, signature = extracted
        digest = hints[(tx.txid, input_index)]
        key = (ECDSA, pubkey, digest, signature)
        if key in memo:
            continue
        try:
            item = (ecdsa.PublicKey.from_bytes(pubkey), digest,
                    ecdsa.Signature.from_bytes(signature))
        except ecdsa.ECDSAError:
            # The interpreter's CHECKSIG answers False for unparseable
            # material; nothing to verify, nothing to store.
            continue
        keys.append(key)
        items.append(item)
    if items:
        for key, verdict in zip(keys, ecdsa.verify_batch(items)):
            memo.put(key, verdict, prefetched=True)
    return hints
