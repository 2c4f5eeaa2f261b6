"""Bitcoin-style scripting for BcWAN.

* :mod:`repro.script.script` — the :class:`Script` container and
  CScriptNum number encoding;
* :mod:`repro.script.opcodes` — opcode table, including the BcWAN
  extension ``OP_CHECKRSA512PAIR``;
* :mod:`repro.script.interpreter` — the stack machine;
* :mod:`repro.script.builder` — standard templates (P2PKH, OP_RETURN) and
  the paper's Listing 1 ephemeral-key-release script;
* :mod:`repro.script.analysis` — what a script's text decides: output
  templates (:func:`classify_output`), the fast-reject scan
  (:func:`analyze`) and the mempool/engine
  :class:`~repro.script.analysis.StandardnessPolicy`.
"""

from repro.script.analysis import (
    STANDARD_OUTPUT_CLASSES,
    StandardnessPolicy,
    StandardnessStats,
    analyze,
    classify_output,
    is_push_only,
)
from repro.script.builder import (
    RSA_PAIR_PLACEHOLDER,
    ephemeral_key_release,
    key_release_claim,
    key_release_refund,
    op_return,
    p2pkh_locking,
    p2pkh_unlocking,
)
from repro.script.errors import EvaluationError, ScriptError, SerializationError
from repro.script.interpreter import (
    ExecutionContext,
    NullContext,
    ScriptInterpreter,
)
from repro.script.opcodes import OP, opcode_name
from repro.script.script import Script, decode_number, encode_number

__all__ = [
    "EvaluationError",
    "ExecutionContext",
    "NullContext",
    "OP",
    "RSA_PAIR_PLACEHOLDER",
    "STANDARD_OUTPUT_CLASSES",
    "Script",
    "ScriptError",
    "ScriptInterpreter",
    "SerializationError",
    "StandardnessPolicy",
    "StandardnessStats",
    "analyze",
    "classify_output",
    "is_push_only",
    "decode_number",
    "encode_number",
    "ephemeral_key_release",
    "key_release_claim",
    "key_release_refund",
    "op_return",
    "opcode_name",
    "p2pkh_locking",
    "p2pkh_unlocking",
]
