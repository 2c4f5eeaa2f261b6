"""The script stack machine, opcode by opcode."""

from __future__ import annotations

import random

import pytest

from repro.crypto import rsa
from repro.script.errors import EvaluationError
from repro.script.interpreter import NullContext, ScriptInterpreter
from repro.script.opcodes import OP
from repro.script.script import Script, encode_number


@pytest.fixture
def interp():
    return ScriptInterpreter()


def run(interp, elements, initial=None):
    return interp.evaluate(Script(elements), initial or [])


def num(value):
    return encode_number(value)


class AcceptAllContext:
    """Signature/locktime checks always pass (for opcode-level tests)."""

    def check_ecdsa_signature(self, pubkey, signature):
        return True

    def check_locktime(self, required):
        return True


# -- constants and stack ops -----------------------------------------------------

def test_push_constants(interp):
    assert run(interp, [OP.OP_0]) == [b""]
    assert run(interp, [OP.OP_1]) == [num(1)]
    assert run(interp, [OP.OP_16]) == [num(16)]
    assert run(interp, [OP.OP_1NEGATE]) == [num(-1)]


def test_dup(interp):
    assert run(interp, [b"\x07", OP.OP_DUP]) == [b"\x07", b"\x07"]


def test_dup_empty_stack(interp):
    with pytest.raises(EvaluationError):
        run(interp, [OP.OP_DUP])


def test_drop_swap_over_rot(interp):
    assert run(interp, [b"a", b"b", OP.OP_DROP]) == [b"a"]
    assert run(interp, [b"a", b"b", OP.OP_SWAP]) == [b"b", b"a"]
    assert run(interp, [b"a", b"b", OP.OP_OVER]) == [b"a", b"b", b"a"]
    assert run(interp, [b"a", b"b", b"c", OP.OP_ROT]) == [b"b", b"c", b"a"]


def test_2dup_3dup_2drop(interp):
    assert run(interp, [b"a", b"b", OP.OP_2DUP]) == [b"a", b"b", b"a", b"b"]
    assert run(interp, [b"a", b"b", b"c", OP.OP_3DUP]) == [
        b"a", b"b", b"c", b"a", b"b", b"c"]
    assert run(interp, [b"a", b"b", OP.OP_2DROP]) == []


def test_nip_tuck(interp):
    assert run(interp, [b"a", b"b", OP.OP_NIP]) == [b"b"]
    assert run(interp, [b"a", b"b", OP.OP_TUCK]) == [b"b", b"a", b"b"]


def test_pick_roll(interp):
    assert run(interp, [b"a", b"b", b"c", num(2), OP.OP_PICK]) == [
        b"a", b"b", b"c", b"a"]
    assert run(interp, [b"a", b"b", b"c", num(2), OP.OP_ROLL]) == [
        b"b", b"c", b"a"]


def test_depth_size(interp):
    assert run(interp, [b"a", b"bb", OP.OP_DEPTH]) == [b"a", b"bb", num(2)]
    assert run(interp, [b"abc", OP.OP_SIZE]) == [b"abc", num(3)]


def test_ifdup(interp):
    assert run(interp, [num(1), OP.OP_IFDUP]) == [num(1), num(1)]
    assert run(interp, [b"", OP.OP_IFDUP]) == [b""]


def test_altstack(interp):
    assert run(interp, [b"x", OP.OP_TOALTSTACK, b"y",
                        OP.OP_FROMALTSTACK]) == [b"y", b"x"]


def test_fromaltstack_empty(interp):
    with pytest.raises(EvaluationError):
        run(interp, [OP.OP_FROMALTSTACK])


def test_2swap_2over_2rot(interp):
    items = [b"a", b"b", b"c", b"d"]
    assert run(interp, items + [OP.OP_2SWAP]) == [b"c", b"d", b"a", b"b"]
    assert run(interp, items + [OP.OP_2OVER]) == items + [b"a", b"b"]
    six = [b"a", b"b", b"c", b"d", b"e", b"f"]
    assert run(interp, six + [OP.OP_2ROT]) == [b"c", b"d", b"e", b"f",
                                               b"a", b"b"]


# -- arithmetic -----------------------------------------------------------------

@pytest.mark.parametrize("opcode,a,b,expected", [
    (OP.OP_ADD, 2, 3, 5),
    (OP.OP_SUB, 7, 3, 4),
    (OP.OP_MIN, 3, 9, 3),
    (OP.OP_MAX, 3, 9, 9),
    (OP.OP_BOOLAND, 1, 0, 0),
    (OP.OP_BOOLOR, 1, 0, 1),
    (OP.OP_NUMEQUAL, 4, 4, 1),
    (OP.OP_NUMNOTEQUAL, 4, 4, 0),
    (OP.OP_LESSTHAN, 2, 3, 1),
    (OP.OP_GREATERTHAN, 2, 3, 0),
    (OP.OP_LESSTHANOREQUAL, 3, 3, 1),
    (OP.OP_GREATERTHANOREQUAL, 2, 3, 0),
])
def test_binary_arithmetic(interp, opcode, a, b, expected):
    assert run(interp, [num(a), num(b), opcode]) == [num(expected)]


@pytest.mark.parametrize("opcode,a,expected", [
    (OP.OP_1ADD, 4, 5),
    (OP.OP_1SUB, 4, 3),
    (OP.OP_NEGATE, 4, -4),
    (OP.OP_ABS, -4, 4),
    (OP.OP_NOT, 0, 1),
    (OP.OP_NOT, 7, 0),
    (OP.OP_0NOTEQUAL, 7, 1),
    (OP.OP_0NOTEQUAL, 0, 0),
])
def test_unary_arithmetic(interp, opcode, a, expected):
    assert run(interp, [num(a), opcode]) == [num(expected)]


def test_within(interp):
    assert run(interp, [num(5), num(1), num(10), OP.OP_WITHIN]) == [b"\x01"]
    assert run(interp, [num(10), num(1), num(10), OP.OP_WITHIN]) == [b""]


def test_numequalverify(interp):
    assert run(interp, [num(3), num(3), OP.OP_NUMEQUALVERIFY]) == []
    with pytest.raises(EvaluationError):
        run(interp, [num(3), num(4), OP.OP_NUMEQUALVERIFY])


def test_arithmetic_rejects_oversized_numbers(interp):
    with pytest.raises(EvaluationError):
        run(interp, [b"\x01" * 5, num(1), OP.OP_ADD])


# -- comparison / crypto -----------------------------------------------------------

def test_equal(interp):
    assert run(interp, [b"x", b"x", OP.OP_EQUAL]) == [b"\x01"]
    assert run(interp, [b"x", b"y", OP.OP_EQUAL]) == [b""]


def test_equalverify(interp):
    assert run(interp, [b"x", b"x", OP.OP_EQUALVERIFY]) == []
    with pytest.raises(EvaluationError):
        run(interp, [b"x", b"y", OP.OP_EQUALVERIFY])


def test_hash_opcodes(interp):
    from repro.crypto.hashing import double_sha256, hash160, sha256
    from repro.crypto.ripemd160 import ripemd160
    assert run(interp, [b"data", OP.OP_SHA256]) == [sha256(b"data")]
    assert run(interp, [b"data", OP.OP_HASH160]) == [hash160(b"data")]
    assert run(interp, [b"data", OP.OP_HASH256]) == [double_sha256(b"data")]
    assert run(interp, [b"data", OP.OP_RIPEMD160]) == [ripemd160(b"data")]


def test_checksig_null_context_fails(interp):
    result = run(interp, [b"sig", b"pubkey", OP.OP_CHECKSIG])
    assert result == [b""]


def test_checksig_accepting_context():
    interp = ScriptInterpreter(context=AcceptAllContext())
    assert interp.evaluate(Script([b"sig", b"pk", OP.OP_CHECKSIG])) == [b"\x01"]


def test_checksigverify():
    interp = ScriptInterpreter(context=AcceptAllContext())
    assert interp.evaluate(Script([b"sig", b"pk", OP.OP_CHECKSIGVERIFY])) == []
    with pytest.raises(EvaluationError):
        ScriptInterpreter().evaluate(
            Script([b"sig", b"pk", OP.OP_CHECKSIGVERIFY])
        )


def test_checkmultisig():
    interp = ScriptInterpreter(context=AcceptAllContext())
    # 2-of-3 with the historical dummy element.
    script = Script([b"", b"s1", b"s2", num(2), b"k1", b"k2", b"k3", num(3),
                     OP.OP_CHECKMULTISIG])
    assert interp.evaluate(script) == [b"\x01"]


def test_checkmultisig_fails_null_context(interp):
    script = Script([b"", b"s1", num(1), b"k1", num(1), OP.OP_CHECKMULTISIG])
    assert run(interp, script.elements) == [b""]


# -- flow control ----------------------------------------------------------------

def test_if_true_branch(interp):
    assert run(interp, [num(1), OP.OP_IF, b"T", OP.OP_ELSE, b"F",
                        OP.OP_ENDIF]) == [b"T"]


def test_if_false_branch(interp):
    assert run(interp, [b"", OP.OP_IF, b"T", OP.OP_ELSE, b"F",
                        OP.OP_ENDIF]) == [b"F"]


def test_notif(interp):
    assert run(interp, [b"", OP.OP_NOTIF, b"T", OP.OP_ENDIF]) == [b"T"]


def test_nested_if(interp):
    script = [num(1), OP.OP_IF,
              b"", OP.OP_IF, b"inner-T", OP.OP_ELSE, b"inner-F", OP.OP_ENDIF,
              OP.OP_ENDIF]
    assert run(interp, script) == [b"inner-F"]


def test_skipped_branch_ignores_errors(interp):
    """Opcodes in a non-executing branch must not run at all."""
    script = [num(1), OP.OP_IF, b"ok", OP.OP_ELSE, OP.OP_FROMALTSTACK,
              OP.OP_ENDIF]
    assert run(interp, script) == [b"ok"]


def test_unbalanced_if_fails(interp):
    with pytest.raises(EvaluationError):
        run(interp, [num(1), OP.OP_IF, b"x"])


def test_else_without_if(interp):
    with pytest.raises(EvaluationError):
        run(interp, [OP.OP_ELSE])


def test_endif_without_if(interp):
    with pytest.raises(EvaluationError):
        run(interp, [OP.OP_ENDIF])


def test_verify(interp):
    assert run(interp, [num(1), OP.OP_VERIFY]) == []
    with pytest.raises(EvaluationError):
        run(interp, [b"", OP.OP_VERIFY])


def test_op_return_aborts(interp):
    with pytest.raises(EvaluationError):
        run(interp, [OP.OP_RETURN, b"data"])


def test_nop(interp):
    assert run(interp, [OP.OP_NOP]) == []


def test_unknown_opcode_fails(interp):
    with pytest.raises(EvaluationError):
        run(interp, [0xFE])


# -- truthiness -------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (b"", False),
    (b"\x00", False),
    (b"\x00\x00", False),
    (b"\x80", False),          # negative zero
    (b"\x00\x80", False),      # longer negative zero
    (b"\x01", True),
    (b"\x80\x00", True),       # 0x80 not in last position
])
def test_boolean_interpretation(interp, value, expected):
    result = run(interp, [value, OP.OP_IF, b"T", OP.OP_ELSE, b"F",
                          OP.OP_ENDIF])
    assert result == [b"T" if expected else b"F"]


# -- locktime ----------------------------------------------------------------------

def test_cltv_peeks_stack():
    interp = ScriptInterpreter(context=AcceptAllContext())
    result = interp.evaluate(Script([num(500), OP.OP_CHECKLOCKTIMEVERIFY]))
    assert result == [num(500)]  # BIP-65: operand stays


def test_cltv_fails_when_context_rejects(interp):
    with pytest.raises(EvaluationError):
        run(interp, [num(500), OP.OP_CHECKLOCKTIMEVERIFY])


def test_cltv_rejects_negative():
    interp = ScriptInterpreter(context=AcceptAllContext())
    with pytest.raises(EvaluationError):
        interp.evaluate(Script([encode_number(-5),
                                OP.OP_CHECKLOCKTIMEVERIFY]))


# -- OP_CHECKRSA512PAIR --------------------------------------------------------------

@pytest.fixture(scope="module")
def rsa_pair():
    return rsa.generate_keypair(512, random.Random(0xCC))


def test_rsa_pair_match(interp, rsa_pair):
    result = run(interp, [rsa_pair.to_bytes(), rsa_pair.public_key.to_bytes(),
                          OP.OP_CHECKRSA512PAIR])
    assert result == [b"\x01"]


def test_rsa_pair_mismatch(interp, rsa_pair):
    other = rsa.generate_keypair(512, random.Random(0xCD))
    result = run(interp, [other.to_bytes(), rsa_pair.public_key.to_bytes(),
                          OP.OP_CHECKRSA512PAIR])
    assert result == [b""]


def test_rsa_pair_garbage_private_is_false_not_error(interp, rsa_pair):
    result = run(interp, [b"\x00", rsa_pair.public_key.to_bytes(),
                          OP.OP_CHECKRSA512PAIR])
    assert result == [b""]


def test_rsa_pair_garbage_public_is_false_not_error(interp, rsa_pair):
    result = run(interp, [rsa_pair.to_bytes(), b"junk",
                          OP.OP_CHECKRSA512PAIR])
    assert result == [b""]


def test_rsa_pair_underflow(interp):
    with pytest.raises(EvaluationError):
        run(interp, [b"only-one", OP.OP_CHECKRSA512PAIR])


# -- resource limits ---------------------------------------------------------------

def test_op_count_limit(interp):
    with pytest.raises(EvaluationError):
        run(interp, [num(1)] + [OP.OP_DUP, OP.OP_DROP] * 101)


def test_verify_false_on_script_error():
    interp = ScriptInterpreter()
    assert not interp.verify(Script([]), Script([OP.OP_DUP]))


def test_verify_false_on_empty_final_stack():
    interp = ScriptInterpreter()
    assert not interp.verify(Script([b"x"]), Script([OP.OP_DROP]))


def test_pushes_do_not_count_toward_op_limit(interp):
    # 300 pushes of data plus one real opcode: well past MAX_OPS elements
    # but only one billable op.
    result = run(interp, [b"x"] * 300 + [OP.OP_DEPTH])
    assert result[-1] == num(300)


def test_multisig_bills_one_op_per_key(interp):
    interp.context = AcceptAllContext()
    keys = [b"\x02" * 66] * 20
    multisig = [b"", b""] + keys + [num(20), OP.OP_CHECKMULTISIG]
    # 180 NOPs + 1 multisig op + 20 key charges = 201 = MAX_OPS: passes.
    run(interp, [OP.OP_NOP] * 180 + multisig)
    # One more NOP tips the budget to 202 only because of key billing.
    with pytest.raises(EvaluationError, match="too many opcodes"):
        run(interp, [OP.OP_NOP] * 181 + multisig)


def test_alt_stack_counts_toward_combined_limit(interp):
    # 1000 items is exactly at the limit even split across both stacks...
    full = [b"x"] * 1000
    run(interp, [OP.OP_TOALTSTACK, OP.OP_DROP, b"y"], initial=list(full))
    # ...but duplicating while one item sits on the altstack overflows.
    with pytest.raises(EvaluationError, match="stack overflow"):
        run(interp, [OP.OP_TOALTSTACK, OP.OP_DUP], initial=list(full))


def test_underflow_messages_are_consistent(interp):
    with pytest.raises(EvaluationError, match="stack underflow: OP_DUP"):
        run(interp, [OP.OP_DUP])
    with pytest.raises(EvaluationError, match="stack underflow: OP_IF"):
        run(interp, [OP.OP_IF, OP.OP_ENDIF])
    with pytest.raises(EvaluationError,
                       match="altstack underflow: OP_FROMALTSTACK"):
        run(interp, [OP.OP_FROMALTSTACK])


def test_pick_roll_reject_negative_index_before_depth_check(interp):
    # A negative index must be reported as such even when the stack is
    # too shallow for any positive pick.
    with pytest.raises(EvaluationError, match="negative index"):
        run(interp, [b"a", num(-1), OP.OP_PICK])
    with pytest.raises(EvaluationError, match="negative index"):
        run(interp, [b"a", num(-1), OP.OP_ROLL])
