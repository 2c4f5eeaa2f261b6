"""Relay policy and the fast-reject for BcWAN scripts, from their text.

Consensus is the interpreter; this module decides nothing it could not
read off a script's elements.  It has two consumers:

* **Standardness** — the mempool turns away transactions that match no
  template before paying for signature checks: every output must
  classify (:func:`classify_output`) as P2PKH, the paper's Listing 1 or
  a CLTV-guarded P2PKH, with a minimally encoded, non-negative locktime
  operand, or be a zero-value ``OP_RETURN`` data carrier; every
  unlocking script must be push-only and carry no high-S signature.
  Consensus stays permissive, admission stays strict.
* **Fast-reject** — the validation engine skips the interpreter for a
  spend whose text dooms it (:func:`analyze`): an unbalanced
  conditional, more than ``MAX_OPS`` opcodes, or an ``OP_RETURN``
  outside every conditional.  The interpreter would fail on each of
  them too, so acting on one changes cost, never a verdict.

:class:`StandardnessPolicy` packages both with their counters and is
owned by the :class:`~repro.blockchain.engine.ValidationEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.ecdsa import CURVE_ORDER
from repro.script.builder import parse_ephemeral_key_release
from repro.script.errors import ScriptError
from repro.script.interpreter import MAX_OPS
from repro.script.opcodes import OP
from repro.script.script import Script, ScriptElement, decode_number, encode_number

__all__ = [
    "OUTPUT_P2PKH",
    "OUTPUT_KEY_RELEASE",
    "OUTPUT_CLTV_GUARDED",
    "OUTPUT_OP_RETURN",
    "OUTPUT_UNSPENDABLE",
    "OUTPUT_TRIVIAL",
    "OUTPUT_EMPTY",
    "OUTPUT_NONSTANDARD",
    "STANDARD_OUTPUT_CLASSES",
    "StandardnessStats",
    "StandardnessPolicy",
    "analyze",
    "classify_output",
    "is_push_only",
]

# -- output classification ----------------------------------------------------

OUTPUT_P2PKH = "p2pkh"
OUTPUT_KEY_RELEASE = "rsa-pair-locked"
OUTPUT_CLTV_GUARDED = "cltv-guarded"
OUTPUT_OP_RETURN = "op-return"
OUTPUT_UNSPENDABLE = "unspendable"
OUTPUT_TRIVIAL = "trivial"
OUTPUT_EMPTY = "empty"
OUTPUT_NONSTANDARD = "nonstandard"

#: Spendable output shapes the mempool admits.  ``op-return`` is admitted
#: separately (data carrier, zero value only); everything else is policy-
#: rejected at admission while remaining consensus-valid in blocks.
STANDARD_OUTPUT_CLASSES = frozenset({
    OUTPUT_P2PKH, OUTPUT_KEY_RELEASE, OUTPUT_CLTV_GUARDED,
})

def _script_bool(item: bytes) -> bool:
    """Bitcoin truthiness (mirrors the interpreter's ``_as_bool``)."""
    for i, byte in enumerate(item):
        if byte != 0:
            if i == len(item) - 1 and byte == 0x80:
                return False
            return True
    return False


def _constant_value(element: ScriptElement) -> Optional[bytes]:
    """The bytes a constant-push element leaves on the stack, else None."""
    if isinstance(element, bytes):
        return element
    if element == OP.OP_0:
        return b""
    if element == OP.OP_1NEGATE:
        return encode_number(-1)
    if OP.OP_1 <= element <= OP.OP_16:
        return encode_number(element - OP.OP_1 + 1)
    return None


def is_push_only(script: Script) -> bool:
    """True if the script only pushes data (the standardness rule for
    unlocking scripts: no computation may live in a scriptSig)."""
    return all(_constant_value(element) is not None
               for element in script.elements)


def _is_high_s_signature(element: ScriptElement) -> bool:
    """Whether a pushed element is a well-formed but high-S signature.

    Only 64-byte pushes whose halves both decode to in-range scalars
    qualify — anything else is either not a signature or will fail
    verification outright, which is the interpreter's business, not
    standardness's.
    """
    if not isinstance(element, bytes) or len(element) != 64:
        return False
    r = int.from_bytes(element[:32], "big")
    s = int.from_bytes(element[32:], "big")
    return (0 < r < CURVE_ORDER) and (CURVE_ORDER // 2 < s < CURVE_ORDER)


def _is_p2pkh(elements: tuple[ScriptElement, ...]) -> bool:
    return (
        len(elements) == 5
        and elements[0] == OP.OP_DUP
        and elements[1] == OP.OP_HASH160
        and isinstance(elements[2], bytes) and len(elements[2]) == 20
        and elements[3] == OP.OP_EQUALVERIFY
        and elements[4] == OP.OP_CHECKSIG
    )


def _is_cltv_guarded(elements: tuple[ScriptElement, ...]) -> bool:
    """``<locktime> OP_CHECKLOCKTIMEVERIFY OP_DROP <p2pkh>``."""
    return (
        len(elements) == 8
        and isinstance(elements[0], bytes)
        and elements[1] == OP.OP_CHECKLOCKTIMEVERIFY
        and elements[2] == OP.OP_DROP
        and _is_p2pkh(elements[3:])
    )


def classify_output(script: Script) -> str:
    """Name the shape of a locking script.

    Returns one of the ``OUTPUT_*`` constants.  Template recognition runs
    before the generic buckets, so a Listing-1 script classifies as
    ``rsa-pair-locked`` even though it also contains a CLTV.
    """
    elements = script.elements
    if not elements:
        return OUTPUT_EMPTY
    if elements[0] == OP.OP_RETURN:
        return OUTPUT_OP_RETURN
    if _is_p2pkh(elements):
        return OUTPUT_P2PKH
    if parse_ephemeral_key_release(script) is not None:
        return OUTPUT_KEY_RELEASE
    if _is_cltv_guarded(elements):
        return OUTPUT_CLTV_GUARDED
    if is_push_only(script):
        final = _constant_value(elements[-1])
        assert final is not None
        # A push-only script never errors; its verdict is its last push.
        return OUTPUT_TRIVIAL if _script_bool(final) else OUTPUT_UNSPENDABLE
    # A script whose text dooms it (an OP_RETURN outside every
    # conditional, say) is unspendable whatever the spender pushes.
    if analyze(script) is not None:
        return OUTPUT_UNSPENDABLE
    return OUTPUT_NONSTANDARD


# -- the fast-reject scan -----------------------------------------------------

# Script elements are plain ints and bytes; so are these, for speed.
_OP_16 = int(OP.OP_16)
_OPEN = frozenset({int(OP.OP_IF), int(OP.OP_NOTIF)})
_ELSE = int(OP.OP_ELSE)
_ENDIF = int(OP.OP_ENDIF)
_RETURN = int(OP.OP_RETURN)


def analyze(script: Script) -> Optional[str]:
    """The first failure the interpreter must hit whatever the data.

    Returns the interpreter's message for that failure, or ``None`` when
    only execution can decide.  Three failures are visible in the text: an
    ``OP_ELSE``/``OP_ENDIF`` without an ``OP_IF`` or an unclosed
    ``OP_IF``; more than ``MAX_OPS`` opcodes above ``OP_16``, which the
    interpreter bills in unexecuted arms too; and an ``OP_RETURN``
    outside every conditional, which always executes.
    """
    depth = 0
    ops = 0
    for element in script.elements:
        if isinstance(element, bytes) or element <= _OP_16:
            continue
        ops += 1
        if ops > MAX_OPS:
            return f"too many opcodes (> {MAX_OPS})"
        if element in _OPEN:
            depth += 1
        elif element == _ELSE and not depth:
            return "OP_ELSE without OP_IF"
        elif element == _ENDIF:
            if not depth:
                return "OP_ENDIF without OP_IF"
            depth -= 1
        elif element == _RETURN and not depth:
            return "OP_RETURN makes output unspendable"
    if depth:
        return "unbalanced OP_IF/OP_ENDIF"
    return None


# -- the policy ---------------------------------------------------------------

# Template -> index of its CLTV locktime operand.
_LOCKTIME_OPERAND = {OUTPUT_KEY_RELEASE: 8, OUTPUT_CLTV_GUARDED: 0}


def _locktime_reason(operand: bytes) -> Optional[str]:
    """Why a template's locktime operand is not standard, else None.

    It must decode in at most 5 bytes, be non-negative and be minimally
    encoded: a padded operand executes, but two encodings of one
    locktime would hash differently.
    """
    try:
        value = decode_number(operand, max_size=5)
    except ScriptError:
        return f"locktime operand {operand.hex()} does not decode"
    if value < 0:
        return f"negative locktime {value}"
    if encode_number(value) != operand:
        return (f"locktime operand {operand.hex()} is not minimally "
                f"encoded for {value}")
    return None


@dataclass
class StandardnessStats:
    """Counters of one policy instance (telemetry-facing)."""

    tx_checked: int = 0
    tx_rejected: int = 0
    spends_prechecked: int = 0
    fast_rejects: int = 0
    output_classes: dict[str, int] = field(default_factory=dict)


class StandardnessPolicy:
    """Relay policy and the consensus-safe fast-reject.

    Two duties, with different authority:

    * :meth:`check_transaction` is **policy**: it may reject perfectly
      executable transactions (non-template outputs, non-push or high-S
      unlocking scripts, value burned into OP_RETURN).  Only the mempool
      calls it; blocks are exempt.
    * :meth:`precheck_spend` is **consensus-safe**: it only reports
      spends whose execution fails whatever the data, so the validation
      engine runs it on mempool and block paths without changing any
      verdict.
    """

    def __init__(self) -> None:
        self.stats = StandardnessStats()

    # -- mempool policy ------------------------------------------------------

    def check_output(self, value: int, script_pubkey: Script) -> Optional[str]:
        """Vet one output; returns a rejection reason or ``None``."""
        cls = classify_output(script_pubkey)
        self.stats.output_classes[cls] = \
            self.stats.output_classes.get(cls, 0) + 1
        if cls == OUTPUT_OP_RETURN:
            if value != 0:
                return (f"OP_RETURN output burns {value} into a provably "
                        f"unspendable data carrier")
            return None
        if cls not in STANDARD_OUTPUT_CLASSES:
            return (f"non-standard output class '{cls}': "
                    f"{script_pubkey.disassemble()[:96]}")
        operand = _LOCKTIME_OPERAND.get(cls)
        if operand is not None:
            reason = _locktime_reason(script_pubkey.elements[operand])
            if reason is not None:
                return f"'{cls}' output: {reason}"
        return None

    def check_transaction(self, tx) -> Optional[str]:
        """The mempool's standardness pre-pass; returns a reason or None.

        A template check: it touches no chain state and executes no
        script, so it runs before input resolution and signature checks.
        """
        self.stats.tx_checked += 1
        reason = self._transaction_reason(tx)
        if reason is not None:
            self.stats.tx_rejected += 1
        return reason

    def _transaction_reason(self, tx) -> Optional[str]:
        if not tx.is_coinbase:
            for index, tx_input in enumerate(tx.inputs):
                script_sig = tx_input.script_sig
                if not is_push_only(script_sig):
                    return f"input {index} unlocking script is not push-only"
                # Canonical-signature policy (the BIP 62 half of it): a
                # high-S signature is the malleable twin of a low-S one
                # the signer could have produced instead.  Consensus
                # accepts both — this is standardness only, so the
                # mempool stops malleated relays at the door.
                if any(map(_is_high_s_signature, script_sig.elements)):
                    return (f"input {index} carries a non-canonical "
                            f"high-S signature")
        for index, output in enumerate(tx.outputs):
            reason = self.check_output(output.value, output.script_pubkey)
            if reason is not None:
                return f"output {index}: {reason}"
        return None

    # -- consensus-safe fast-reject ------------------------------------------

    def precheck_spend(self, unlocking: Script,
                       locking: Script) -> Optional[str]:
        """Reject a spend without executing it, when its text dooms it.

        Returns a reason only when execution of the pair fails whatever
        the data (:func:`analyze` on either script); ``None`` means
        "must execute to decide".  A rejection counts in
        ``stats.fast_rejects``.
        """
        self.stats.spends_prechecked += 1
        for role, script in (("unlocking", unlocking), ("locking", locking)):
            reason = analyze(script)
            if reason is not None:
                self.stats.fast_rejects += 1
                return f"{role} script provably fails: {reason}"
        return None
