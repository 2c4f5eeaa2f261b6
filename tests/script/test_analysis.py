"""The static analyzer: classification, bounds, CLTV audit, agreement.

The load-bearing property is *soundness of fatal*: whenever the
analyzer calls a script fatal, interpreter execution provably fails —
that is what licenses the engine's fast-reject to skip execution on a
consensus path.  The hypothesis test at the bottom hammers exactly
that, both directions, against the real interpreter.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.script import analysis
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


def has(report, code: str) -> bool:
    return any(issue.code == code for issue in report.issues)


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
    ):
        report = analyze(script, assume_unknown_input=True)
        assert not report.fatal
        assert report.standard


# -- bounds -------------------------------------------------------------------

def test_guaranteed_underflow_is_fatal():
    report = analyze(Script((OP.OP_ADD,)))
    assert report.fatal and has(report, "stack-underflow")


def test_possible_underflow_is_only_a_warning():
    # Needs two items, starts with up to two: may or may not underflow.
    report = analyze(Script((OP.OP_ADD,)), initial=(0, 2))
    assert not report.fatal
    assert has(report, "possible-underflow")


def test_op_limit_bound():
    ok = analyze(Script(tuple([OP.OP_NOP] * MAX_OPS)))
    assert not ok.fatal and ok.op_count_max == MAX_OPS
    over = analyze(Script(tuple([OP.OP_NOP] * (MAX_OPS + 1))))
    assert over.fatal and has(over, "op-limit")


def test_pushes_are_not_billed_as_ops():
    report = analyze(Script(tuple([b"x"] * 300 + [OP.OP_DEPTH])))
    assert report.op_count_max == 1
    assert not report.fatal


def test_multisig_worst_case_op_billing():
    report = analyze(Script((b"", b"k", OP.OP_1, OP.OP_CHECKMULTISIG)))
    assert report.op_count_min == 1
    assert report.op_count_max == 21


def test_guaranteed_stack_overflow_is_fatal():
    report = analyze(Script(tuple([b"x"] * (MAX_STACK_SIZE + 1))))
    assert report.fatal and has(report, "stack-overflow")
    assert report.max_stack == MAX_STACK_SIZE + 1


def test_altstack_round_trip_and_overflow():
    ok = analyze(Script((b"x", OP.OP_TOALTSTACK, OP.OP_FROMALTSTACK)))
    assert not ok.fatal and ok.final_lo == ok.final_hi == 1
    # Alt stack items count against the combined limit.
    report = analyze(
        Script((OP.OP_TOALTSTACK, OP.OP_DUP)),
        initial=(MAX_STACK_SIZE, MAX_STACK_SIZE),
    )
    assert report.fatal and has(report, "stack-overflow")


def test_fromaltstack_on_empty_altstack_is_fatal():
    report = analyze(Script((OP.OP_FROMALTSTACK,)), initial=(5, 5))
    assert report.fatal and has(report, "altstack-underflow")


# -- conditionals -------------------------------------------------------------

def test_unbalanced_if_variants_are_fatal():
    for elements in (
        (b"\x01", OP.OP_IF),
        (b"\x01", OP.OP_IF, OP.OP_ELSE),
        (OP.OP_ENDIF,),
        (OP.OP_ELSE,),
        (b"\x01", OP.OP_IF, OP.OP_ENDIF, OP.OP_ENDIF),
    ):
        report = analyze(Script(elements))
        assert report.fatal, elements


def test_branch_join_takes_interval_union():
    script = Script((OP.OP_IF, b"a", b"b", OP.OP_ELSE, b"c", OP.OP_ENDIF))
    report = analyze(script, initial=(1, 1))
    assert not report.fatal
    assert (report.final_lo, report.final_hi) == (1, 2)


def test_dead_arm_is_warning_not_fatal():
    script = Script((b"\x01", OP.OP_IF, OP.OP_ADD,
                     OP.OP_ELSE, b"x", OP.OP_ENDIF))
    report = analyze(script)
    assert not report.fatal
    assert any(issue.code == "stack-underflow" and issue.severity == "info"
               for issue in report.issues)


def test_all_arms_failing_is_fatal():
    script = Script((b"\x01", OP.OP_IF, OP.OP_ADD,
                     OP.OP_ELSE, OP.OP_RETURN, OP.OP_ENDIF))
    report = analyze(script)
    assert report.fatal and has(report, "all-arms-fail")


# -- CLTV audit ---------------------------------------------------------------

def test_cltv_minimal_operand_is_clean():
    script = Script((encode_number(500), OP.OP_CHECKLOCKTIMEVERIFY))
    report = analyze(script)
    assert report.standard


def test_cltv_nonminimal_operand_is_nonstandard():
    script = Script((b"\x05\x00", OP.OP_CHECKLOCKTIMEVERIFY))
    report = analyze(script)
    assert not report.fatal
    assert any(issue.code == "cltv-nonminimal"
               and issue.severity == "nonstandard"
               for issue in report.issues)


def test_cltv_negative_operand_is_fatal():
    script = Script((encode_number(-5), OP.OP_CHECKLOCKTIMEVERIFY))
    assert has(analyze(script), "cltv-negative")
    assert analyze(script).fatal


def test_cltv_oversize_operand_is_fatal():
    script = Script((b"\x01" * 6, OP.OP_CHECKLOCKTIMEVERIFY))
    report = analyze(script)
    assert report.fatal and has(report, "cltv-bad-operand")


def test_cltv_dynamic_operand_is_flagged_not_rejected():
    script = Script((OP.OP_CHECKLOCKTIMEVERIFY,), )
    report = analyze(script, initial=(1, 1))
    assert not report.fatal
    assert has(report, "cltv-dynamic-operand")


# -- OP_CHECKRSA512PAIR -------------------------------------------------------

def test_checkrsa512pair_single_operand_is_fatal():
    report = analyze(Script((b"only-one", OP.OP_CHECKRSA512PAIR)))
    assert report.fatal and has(report, "stack-underflow")


def test_checkrsa512pair_malformed_operands_execute_to_false(rsa_pair):
    """Garbage keys are not a structural failure: the opcode runs and
    pushes false (the refund arm depends on that), so the analyzer must
    not call it fatal."""
    script = Script((b"\x00", b"\x00", OP.OP_CHECKRSA512PAIR))
    report = analyze(script)
    assert not report.fatal
    result = ScriptInterpreter(context=AcceptAllContext()).evaluate(script)
    assert result == [b""]


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


def test_policy_precheck_rejects_provable_failures():
    policy = StandardnessPolicy()
    cases = [
        (Script(()), op_return(b"data")),           # OP_RETURN lock
        (Script(()), Script((OP.OP_IF,))),          # underflow + unbalanced
        (Script((b"x",)), Script((OP.OP_DROP,))),   # provably empty stack
    ]
    for unlocking, locking in cases:
        assert policy.precheck_spend(unlocking, locking) is not None


def test_policy_analysis_cache_hits():
    policy = StandardnessPolicy()
    script = p2pkh_locking(b"\x11" * 20)
    first = policy.analysis_for(script, assume_unknown_input=True)
    second = policy.analysis_for(script, assume_unknown_input=True)
    assert first is second
    assert policy.stats.analyses >= 1
    assert policy.stats.analysis_cache_hits == 1


def test_policy_cache_is_bounded():
    policy = StandardnessPolicy(max_cache_entries=4)
    for i in range(10):
        policy.analysis_for(Script((bytes([i]),)))
    assert policy.cache_size <= 4


# -- analyzer-vs-interpreter agreement ---------------------------------------

# Interpreter failure messages the analyzer claims to predict, mapped to
# the issue codes that constitute a prediction.  Everything else
# (VERIFY failures, signature mismatches, number-decoding of runtime
# data, multisig counts, locktimes) is data-dependent and out of scope.
_STRUCTURAL_PREDICTIONS = [
    ("stack underflow", {"stack-underflow", "possible-underflow",
                         "dynamic-depth"}),
    ("altstack underflow", {"altstack-underflow",
                            "possible-altstack-underflow"}),
    ("stack overflow", {"stack-overflow", "possible-stack-overflow"}),
    ("too many opcodes", {"op-limit", "possible-op-limit"}),
    ("unbalanced OP_IF/OP_ENDIF", {"unbalanced-conditional"}),
    ("OP_ELSE without OP_IF", {"else-without-if"}),
    ("OP_ENDIF without OP_IF", {"endif-without-if"}),
    ("OP_RETURN makes output unspendable", {"unspendable"}),
    ("unknown or disabled opcode", {"unknown-opcode"}),
]

_POOL = (
    sorted(analysis.KNOWN_OPCODES)
    + [0x4C, 0x50, 0xFF]  # unknown/disabled opcodes
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
    report = analyze(script)
    interpreter = ScriptInterpreter(context=AcceptAllContext())
    try:
        interpreter.evaluate(script)
    except EvaluationError as exc:
        message = str(exc)
        for prefix, codes in _STRUCTURAL_PREDICTIONS:
            if message.startswith(prefix):
                assert any(issue.code in codes for issue in report.issues), (
                    f"{script.disassemble()!r} raised {message!r} "
                    f"unpredicted; issues={[i.code for i in report.issues]}"
                )
                break
        return
    # Execution completed: a fatal verdict would be a false reject.
    assert not report.fatal, (
        f"{script.disassemble()!r} executed fine but analyzer says "
        f"{[i.message for i in report.issues if i.fatal]}"
    )


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
