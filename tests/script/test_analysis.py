"""What a script's text decides: output templates and the fast-reject scan.

The load-bearing property is *soundness of the scan*: whenever
:func:`analyze` returns a verdict, interpreter execution fails — that is
what licenses the engine's fast-reject to skip execution on a consensus
path.  The hypothesis tests at the bottom check it against the real
interpreter, and check that the scan finds every conditional-structure
failure the interpreter raises.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.script.analysis import (
    OUTPUT_CLTV_GUARDED,
    OUTPUT_EMPTY,
    OUTPUT_KEY_RELEASE,
    OUTPUT_NONSTANDARD,
    OUTPUT_OP_RETURN,
    OUTPUT_P2PKH,
    OUTPUT_TRIVIAL,
    OUTPUT_UNSPENDABLE,
    StandardnessPolicy,
    analyze,
    classify_output,
    is_push_only,
)
from repro.script.builder import (
    ephemeral_key_release,
    key_release_claim,
    key_release_refund,
    op_return,
    p2pkh_locking,
    p2pkh_unlocking,
)
from repro.script.errors import EvaluationError, SerializationError
from repro.script.interpreter import (
    MAX_OPS,
    MAX_STACK_SIZE,
    ScriptInterpreter,
)
from repro.script.opcodes import OP
from repro.script.script import Script, encode_number


class AcceptAllContext:
    """Signature/locktime checks always pass (structural tests only)."""

    def check_ecdsa_signature(self, pubkey, signature):
        return True

    def check_locktime(self, required):
        return True


@pytest.fixture(scope="module")
def rsa_pair():
    return rsa.generate_keypair(512, random.Random(7))


# -- output classification ----------------------------------------------------

def test_classification_table(rsa_pair):
    epk = rsa_pair.public_key.to_bytes()
    listing1 = ephemeral_key_release(epk, b"\x11" * 20, b"\x22" * 20, 500)
    cltv = Script((encode_number(700), OP.OP_CHECKLOCKTIMEVERIFY,
                   OP.OP_DROP) + p2pkh_locking(b"\x11" * 20).elements)
    cases = [
        (p2pkh_locking(b"\x11" * 20), OUTPUT_P2PKH),
        (listing1, OUTPUT_KEY_RELEASE),
        (cltv, OUTPUT_CLTV_GUARDED),
        (op_return(b"directory entry"), OUTPUT_OP_RETURN),
        (Script(()), OUTPUT_EMPTY),
        (Script((b"",)), OUTPUT_UNSPENDABLE),       # constant false
        (Script((b"\x00\x80",)), OUTPUT_UNSPENDABLE),  # negative zero
        (Script((b"\x01",)), OUTPUT_TRIVIAL),       # anyone-can-spend
        (Script((OP.OP_DUP, OP.OP_RETURN)), OUTPUT_UNSPENDABLE),
        (Script((OP.OP_ADD,)), OUTPUT_NONSTANDARD),
        # OP_RETURN inside a conditional is reachable-dependent, not
        # provably unspendable.
        (Script((OP.OP_IF, OP.OP_RETURN, OP.OP_ENDIF, b"\x01")),
         OUTPUT_NONSTANDARD),
    ]
    for script, expected in cases:
        assert classify_output(script) == expected, script.disassemble()


def test_push_only_accepts_constants_rejects_computation():
    assert is_push_only(Script((b"sig", b"pubkey")))
    assert is_push_only(Script((OP.OP_0, OP.OP_16, OP.OP_1NEGATE, b"")))
    assert not is_push_only(Script((b"x", OP.OP_DUP)))
    assert not is_push_only(Script((OP.OP_NOP,)))


def test_standard_templates_analyze_clean(rsa_pair):
    epk = rsa_pair.public_key.to_bytes()
    for script in (
        p2pkh_locking(b"\x11" * 20),
        ephemeral_key_release(epk, b"\x11" * 20, b"\x22" * 20, 500),
        key_release_claim(b"\x01" * 70, b"\x02" * 66, rsa_pair.to_bytes()),
        key_release_refund(b"\x01" * 70, b"\x02" * 66),
    ):
        assert analyze(script) is None, script.disassemble()


# -- what the scan claims -------------------------------------------------------

def test_op_limit_bound():
    assert analyze(Script(tuple([OP.OP_NOP] * MAX_OPS))) is None
    over = analyze(Script(tuple([OP.OP_NOP] * (MAX_OPS + 1))))
    assert over == f"too many opcodes (> {MAX_OPS})"


def test_unexecuted_arms_are_billed():
    # The interpreter counts opcodes in the arm a false condition skips.
    script = Script((OP.OP_0, OP.OP_IF) + (OP.OP_NOP,) * MAX_OPS
                    + (OP.OP_ENDIF,))
    assert analyze(script) is not None
    with pytest.raises(EvaluationError, match="too many opcodes"):
        ScriptInterpreter().evaluate(script)


def test_pushes_are_not_billed_as_ops():
    script = Script(tuple([b"x"] * 300 + [OP.OP_NOP] * MAX_OPS))
    assert analyze(script) is None


def test_unbalanced_if_variants_are_fatal():
    for elements in (
        (b"\x01", OP.OP_IF),
        (b"\x01", OP.OP_IF, OP.OP_ELSE),
        (OP.OP_ENDIF,),
        (OP.OP_ELSE,),
        (b"\x01", OP.OP_IF, OP.OP_ENDIF, OP.OP_ENDIF),
    ):
        assert analyze(Script(elements)) is not None, elements
        with pytest.raises(EvaluationError):
            ScriptInterpreter().evaluate(Script(elements))


def test_op_return_outside_conditionals_is_fatal():
    assert analyze(op_return(b"data")) is not None
    assert analyze(Script((b"x", OP.OP_DROP, OP.OP_RETURN))) is not None
    # Inside an arm it runs only if the arm is taken: execution decides.
    assert analyze(Script((OP.OP_IF, OP.OP_RETURN, OP.OP_ENDIF,
                           b"\x01"))) is None


# -- what execution decides -----------------------------------------------------
#
# Each failure below is fatal, but only the interpreter sees it: it
# depends on what the other script of the spend pushes, or on a count
# the interpreter makes at run time.  The scan leaves it alone.

def _left_to_execution(elements, message, stack=()):
    script = Script(elements)
    assert analyze(script) is None, script.disassemble()
    with pytest.raises(EvaluationError, match=message):
        ScriptInterpreter(context=AcceptAllContext()).evaluate(
            script, list(stack))


def test_guaranteed_underflow_is_fatal():
    _left_to_execution((OP.OP_ADD,), "stack underflow")


def test_checkrsa512pair_single_operand_is_fatal():
    _left_to_execution((b"only-one", OP.OP_CHECKRSA512PAIR),
                       "stack underflow")


def test_fromaltstack_on_empty_altstack_is_fatal():
    _left_to_execution((OP.OP_FROMALTSTACK,), "altstack underflow",
                       stack=[b"x"] * 5)


def test_guaranteed_stack_overflow_is_fatal():
    _left_to_execution(tuple([b"x"] * (MAX_STACK_SIZE + 1)),
                       "stack overflow")


def test_altstack_round_trip_and_overflow():
    script = Script((b"x", OP.OP_TOALTSTACK, OP.OP_FROMALTSTACK))
    assert analyze(script) is None
    assert ScriptInterpreter().evaluate(script) == [b"x"]
    # Alt stack items count against the combined limit.
    _left_to_execution((OP.OP_TOALTSTACK, OP.OP_DUP), "stack overflow",
                       stack=[b"x"] * MAX_STACK_SIZE)


def test_all_arms_failing_is_fatal():
    _left_to_execution((b"\x01", OP.OP_IF, OP.OP_ADD,
                        OP.OP_ELSE, OP.OP_RETURN, OP.OP_ENDIF),
                       "stack underflow")


def test_multisig_worst_case_op_billing():
    """The scan bills OP_CHECKMULTISIG as one op, the interpreter one
    more per key it inspects: billing the worst case statically would
    reject spends with fewer keys."""
    no_keys = (OP.OP_0, OP.OP_0, OP.OP_0, OP.OP_CHECKMULTISIG)
    ok = Script((OP.OP_NOP,) * (MAX_OPS - 1) + no_keys)
    assert analyze(ok) is None
    assert ScriptInterpreter().evaluate(ok) == [b"\x01"]
    _left_to_execution((OP.OP_NOP,) * (MAX_OPS - 1)
                       + (OP.OP_0, OP.OP_0, b"k", OP.OP_1,
                          OP.OP_CHECKMULTISIG),
                       "too many opcodes")


def test_checkrsa512pair_malformed_operands_execute_to_false():
    """Garbage keys are not a structural failure: the opcode runs and
    pushes false (the refund arm depends on that), so the scan must not
    reject it."""
    script = Script((b"\x00", b"\x00", OP.OP_CHECKRSA512PAIR))
    assert analyze(script) is None
    result = ScriptInterpreter(context=AcceptAllContext()).evaluate(script)
    assert result == [b""]


# -- CLTV operands: policy on the templates, execution everywhere ---------------

def _cltv_guarded(operand: bytes) -> Script:
    return Script((operand, OP.OP_CHECKLOCKTIMEVERIFY, OP.OP_DROP)
                  + p2pkh_locking(b"\x11" * 20).elements)


def test_cltv_minimal_operand_is_clean():
    script = _cltv_guarded(encode_number(500))
    assert classify_output(script) == OUTPUT_CLTV_GUARDED
    assert StandardnessPolicy().check_output(1, script) is None


def test_cltv_nonminimal_operand_is_nonstandard():
    script = _cltv_guarded(b"\x05\x00")
    reason = StandardnessPolicy().check_output(1, script)
    assert reason is not None and "not minimally encoded" in reason
    # It executes fine: padding is policy, not consensus.
    stack = ScriptInterpreter(context=AcceptAllContext()).evaluate(
        Script((b"\x05\x00", OP.OP_CHECKLOCKTIMEVERIFY)))
    assert stack == [b"\x05\x00"]


def test_cltv_negative_operand_is_fatal():
    script = _cltv_guarded(encode_number(-5))
    reason = StandardnessPolicy().check_output(1, script)
    assert reason is not None and "negative locktime" in reason
    _left_to_execution((encode_number(-5), OP.OP_CHECKLOCKTIMEVERIFY),
                       "negative locktime")


def test_cltv_oversize_operand_is_fatal():
    script = _cltv_guarded(b"\x01" * 6)
    reason = StandardnessPolicy().check_output(1, script)
    assert reason is not None and "does not decode" in reason
    _left_to_execution((b"\x01" * 6, OP.OP_CHECKLOCKTIMEVERIFY),
                       "OP_CHECKLOCKTIMEVERIFY")


def test_cltv_dynamic_operand_is_flagged_not_rejected():
    """A locktime computed at run time fits no template, so policy flags
    the output; the fast-reject leaves the spend to execution."""
    script = Script((OP.OP_DUP, OP.OP_CHECKLOCKTIMEVERIFY, OP.OP_DROP)
                    + p2pkh_locking(b"\x11" * 20).elements)
    assert classify_output(script) == OUTPUT_NONSTANDARD
    assert StandardnessPolicy().check_output(1, script) is not None
    assert StandardnessPolicy().precheck_spend(
        Script((encode_number(500),)), script) is None


# -- the policy ---------------------------------------------------------------

def test_policy_precheck_accepts_real_spends(rsa_pair):
    epk = rsa_pair.public_key.to_bytes()
    policy = StandardnessPolicy()
    listing1 = ephemeral_key_release(epk, b"\x11" * 20, b"\x22" * 20, 500)
    spends = [
        (p2pkh_unlocking(b"\x01" * 70, b"\x02" * 66),
         p2pkh_locking(b"\x11" * 20)),
        (key_release_claim(b"\x01" * 70, b"\x02" * 66, rsa_pair.to_bytes()),
         listing1),
        (key_release_refund(b"\x01" * 70, b"\x02" * 66), listing1),
    ]
    for unlocking, locking in spends:
        assert policy.precheck_spend(unlocking, locking) is None
    assert policy.stats.spends_prechecked == 3
    assert policy.stats.fast_rejects == 0


def test_policy_precheck_rejects_provable_failures():
    policy = StandardnessPolicy()
    cases = [
        (Script(()), op_return(b"data")),           # OP_RETURN lock
        (Script(()), Script((OP.OP_IF,))),          # unbalanced lock
        (Script((OP.OP_ENDIF,)), p2pkh_locking(b"\x11" * 20)),  # unlock
    ]
    for unlocking, locking in cases:
        assert policy.precheck_spend(unlocking, locking) is not None
    assert policy.stats.fast_rejects == len(cases)


# -- scan-vs-interpreter agreement ---------------------------------------------

# Interpreter failures the scan claims to find whenever execution raises
# them; it returns the same message.  Everything else (underflows,
# VERIFY failures, signature mismatches, number-decoding of runtime data,
# locktimes, an OP_RETURN inside a taken arm) is execution's to decide.
_CLAIMED = ("unbalanced OP_IF/OP_ENDIF", "OP_ELSE without OP_IF",
            "OP_ENDIF without OP_IF")

_POOL = (
    sorted({int(op) for op in OP} | {0x4C, 0x50, 0xFF})  # + unknown bytes
    + [b"", b"\x01", b"\x00", encode_number(3), b"x" * 4]
)

_element = st.sampled_from(_POOL)


@given(st.lists(_element, max_size=25))
@settings(max_examples=400, deadline=None)
def test_analyzer_agrees_with_interpreter(elements):
    try:
        script = Script(elements)
    except SerializationError:
        return
    verdict = analyze(script)
    interpreter = ScriptInterpreter(context=AcceptAllContext())
    try:
        interpreter.evaluate(script)
    except EvaluationError as exc:
        message = str(exc)
        if message in _CLAIMED:
            assert verdict == message, (
                f"{script.disassemble()!r} raised {message!r}, "
                f"scan said {verdict!r}")
        return
    # Execution completed: a verdict would be a false reject.
    assert verdict is None, (
        f"{script.disassemble()!r} executed fine but the scan says "
        f"{verdict!r}")


@given(st.lists(_element, max_size=12), st.lists(_element, max_size=12))
@settings(max_examples=200, deadline=None)
def test_precheck_never_rejects_a_passing_spend(unlocking, locking):
    """The engine-facing guarantee, end to end: if verify() would accept
    the spend, precheck_spend must return None."""
    try:
        unlock_script, lock_script = Script(unlocking), Script(locking)
    except SerializationError:
        return
    try:
        passes = ScriptInterpreter(context=AcceptAllContext()).verify(
            unlock_script, lock_script)
    except EvaluationError:
        return  # precheck may say anything; execution fails anyway
    reason = StandardnessPolicy().precheck_spend(unlock_script, lock_script)
    if passes:
        assert reason is None, (
            f"false reject: {unlock_script.disassemble()!r} / "
            f"{lock_script.disassemble()!r}: {reason}"
        )
