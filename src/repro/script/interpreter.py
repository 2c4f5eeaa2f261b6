"""The BcWAN script interpreter.

Executes the unlocking script (scriptSig) then the locking script
(scriptPubKey) over a shared stack, Bitcoin style.  Signature and locktime
checks are delegated to an :class:`ExecutionContext` supplied by the
blockchain layer, which knows the spending transaction; this keeps the
interpreter a pure stack machine.

The custom ``OP_CHECKRSA512PAIR`` (paper Listing 1) pops a serialized RSA
public key and a serialized RSA private key and pushes whether they form a
matching pair — the mechanism that forces a gateway to *reveal* the
ephemeral private key on-chain in order to collect its payment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.crypto import rsa
from repro.crypto.hashing import double_sha256, hash160, ripemd160, sha256
from repro.script.errors import EvaluationError, ScriptError
from repro.script.opcodes import OP, opcode_name
from repro.script.script import Script, decode_number, encode_number

__all__ = [
    "ExecutionContext",
    "MAX_OPS",
    "MAX_STACK_SIZE",
    "NullContext",
    "ScriptInterpreter",
    "check_rsa_pair",
]

MAX_STACK_SIZE = 1_000
MAX_OPS = 201


class ExecutionContext(Protocol):
    """What the interpreter needs to know about the spending transaction."""

    def check_ecdsa_signature(self, pubkey: bytes, signature: bytes) -> bool:
        """Verify ``signature`` over this transaction's sighash."""
        ...

    def check_locktime(self, required: int) -> bool:
        """BIP-65: can this spend satisfy a locktime requirement?"""
        ...


class NullContext:
    """Context for standalone script evaluation (tests, tooling).

    Signature checks fail and locktime checks fail, so scripts exercising
    those opcodes must be run under a real transaction context.
    """

    def check_ecdsa_signature(self, pubkey: bytes, signature: bytes) -> bool:
        return False

    def check_locktime(self, required: int) -> bool:
        return False


def _as_bool(item: bytes) -> bool:
    """Bitcoin truthiness: empty and negative-zero byte strings are false."""
    for i, byte in enumerate(item):
        if byte != 0:
            # Negative zero: sign byte only, in the last position.
            if i == len(item) - 1 and byte == 0x80:
                return False
            return True
    return False


def _bool_bytes(value: bool) -> bytes:
    return b"\x01" if value else b""


@dataclass
class ScriptInterpreter:
    """Evaluates scripts against an execution context.

    The interpreter is stateless between :meth:`evaluate` calls; a fresh
    stack is created per script pair.
    """

    context: ExecutionContext = field(default_factory=NullContext)

    # -- public API ---------------------------------------------------------

    def verify(self, unlocking: Script, locking: Script) -> bool:
        """Run ``unlocking`` then ``locking``; True iff the spend is valid."""
        try:
            stack = self.evaluate(unlocking, [])
            stack = self.evaluate(locking, stack)
        except EvaluationError:
            return False
        return bool(stack) and _as_bool(stack[-1])

    def evaluate(self, script: Script,
                 initial_stack: Optional[list[bytes]] = None) -> list[bytes]:
        """Execute one script over ``initial_stack``; returns the stack.

        Raises :class:`EvaluationError` on any rule violation.
        """
        stack: list[bytes] = list(initial_stack or [])
        alt_stack: list[bytes] = []
        # Each entry: are we currently in an executing branch?
        condition_stack: list[bool] = []
        op_count = 0

        for element in script.elements:
            executing = all(condition_stack)

            if isinstance(element, bytes):
                # Data pushes never consume op budget, however many there
                # are — only real operators count toward MAX_OPS.
                if executing:
                    stack.append(element)
                    self._check_stack(stack, alt_stack)
                continue

            opcode = element
            if opcode > OP.OP_16:
                op_count += 1
                if op_count > MAX_OPS:
                    raise EvaluationError(f"too many opcodes (> {MAX_OPS})")

            # Flow control runs even in non-executing branches.
            if opcode in (OP.OP_IF, OP.OP_NOTIF):
                taken = False
                if executing:
                    taken = _as_bool(self._pop(stack, opcode_name(opcode)))
                    if opcode == OP.OP_NOTIF:
                        taken = not taken
                condition_stack.append(taken)
                continue
            if opcode == OP.OP_ELSE:
                if not condition_stack:
                    raise EvaluationError("OP_ELSE without OP_IF")
                condition_stack[-1] = not condition_stack[-1]
                continue
            if opcode == OP.OP_ENDIF:
                if not condition_stack:
                    raise EvaluationError("OP_ENDIF without OP_IF")
                condition_stack.pop()
                continue

            if not executing:
                continue

            extra_ops = self._execute_opcode(opcode, stack, alt_stack)
            if extra_ops:
                # OP_CHECKMULTISIG bills one op per public key inspected
                # (Bitcoin's nOpCount += nKeysCount) so a 20-key multisig
                # cannot smuggle 20 signature checks for one op.
                op_count += extra_ops
                if op_count > MAX_OPS:
                    raise EvaluationError(f"too many opcodes (> {MAX_OPS})")
            self._check_stack(stack, alt_stack)

        if condition_stack:
            raise EvaluationError("unbalanced OP_IF/OP_ENDIF")
        return stack

    # -- opcode dispatch ----------------------------------------------------

    def _execute_opcode(self, opcode: int, stack: list[bytes],
                        alt_stack: list[bytes]) -> int:
        """Run one opcode; returns extra op-budget consumed (multisig keys)."""
        if opcode == OP.OP_0:
            stack.append(b"")
        elif opcode == OP.OP_1NEGATE:
            stack.append(encode_number(-1))
        elif OP.OP_1 <= opcode <= OP.OP_16:
            stack.append(encode_number(opcode - OP.OP_1 + 1))
        elif opcode == OP.OP_NOP:
            pass
        elif opcode == OP.OP_VERIFY:
            if not _as_bool(self._pop(stack, "OP_VERIFY")):
                raise EvaluationError("OP_VERIFY failed")
        elif opcode == OP.OP_RETURN:
            raise EvaluationError("OP_RETURN makes output unspendable")
        elif opcode == OP.OP_TOALTSTACK:
            alt_stack.append(self._pop(stack, "OP_TOALTSTACK"))
        elif opcode == OP.OP_FROMALTSTACK:
            if not alt_stack:
                raise EvaluationError(
                    "altstack underflow: OP_FROMALTSTACK needs 1 item, have 0"
                )
            stack.append(alt_stack.pop())
        elif opcode == OP.OP_2DROP:
            self._need(stack, 2, "OP_2DROP")
            del stack[-2:]
        elif opcode == OP.OP_2DUP:
            self._need(stack, 2, "OP_2DUP")
            stack.extend(stack[-2:])
        elif opcode == OP.OP_3DUP:
            self._need(stack, 3, "OP_3DUP")
            stack.extend(stack[-3:])
        elif opcode == OP.OP_2OVER:
            self._need(stack, 4, "OP_2OVER")
            stack.extend(stack[-4:-2])
        elif opcode == OP.OP_2ROT:
            self._need(stack, 6, "OP_2ROT")
            moved = stack[-6:-4]
            del stack[-6:-4]
            stack.extend(moved)
        elif opcode == OP.OP_2SWAP:
            self._need(stack, 4, "OP_2SWAP")
            stack[-4:] = stack[-2:] + stack[-4:-2]
        elif opcode == OP.OP_IFDUP:
            self._need(stack, 1, "OP_IFDUP")
            if _as_bool(stack[-1]):
                stack.append(stack[-1])
        elif opcode == OP.OP_DEPTH:
            stack.append(encode_number(len(stack)))
        elif opcode == OP.OP_DROP:
            self._pop(stack, "OP_DROP")
        elif opcode == OP.OP_DUP:
            self._need(stack, 1, "OP_DUP")
            stack.append(stack[-1])
        elif opcode == OP.OP_NIP:
            self._need(stack, 2, "OP_NIP")
            del stack[-2]
        elif opcode == OP.OP_OVER:
            self._need(stack, 2, "OP_OVER")
            stack.append(stack[-2])
        elif opcode in (OP.OP_PICK, OP.OP_ROLL):
            index = self._pop_number(stack, opcode_name(opcode))
            if index < 0:
                raise EvaluationError(
                    f"{opcode_name(opcode)} negative index {index}"
                )
            self._need(stack, index + 1, opcode_name(opcode))
            item = stack[-1 - index]
            if opcode == OP.OP_ROLL:
                del stack[-1 - index]
            stack.append(item)
        elif opcode == OP.OP_ROT:
            self._need(stack, 3, "OP_ROT")
            stack.append(stack.pop(-3))
        elif opcode == OP.OP_SWAP:
            self._need(stack, 2, "OP_SWAP")
            stack[-2], stack[-1] = stack[-1], stack[-2]
        elif opcode == OP.OP_TUCK:
            self._need(stack, 2, "OP_TUCK")
            stack.insert(-2, stack[-1])
        elif opcode == OP.OP_SIZE:
            self._need(stack, 1, "OP_SIZE")
            stack.append(encode_number(len(stack[-1])))
        elif opcode in (OP.OP_EQUAL, OP.OP_EQUALVERIFY):
            self._need(stack, 2, opcode_name(opcode))
            equal = stack.pop() == stack.pop()
            if opcode == OP.OP_EQUALVERIFY:
                if not equal:
                    raise EvaluationError("OP_EQUALVERIFY failed")
            else:
                stack.append(_bool_bytes(equal))
        elif opcode in _UNARY_NUMERIC:
            value = self._pop_number(stack, opcode_name(opcode))
            stack.append(encode_number(_UNARY_NUMERIC[opcode](value)))
        elif opcode in _BINARY_NUMERIC:
            b = self._pop_number(stack, opcode_name(opcode))
            a = self._pop_number(stack, opcode_name(opcode))
            stack.append(encode_number(_BINARY_NUMERIC[opcode](a, b)))
        elif opcode == OP.OP_NUMEQUALVERIFY:
            b = self._pop_number(stack, "OP_NUMEQUALVERIFY")
            a = self._pop_number(stack, "OP_NUMEQUALVERIFY")
            if a != b:
                raise EvaluationError("OP_NUMEQUALVERIFY failed")
        elif opcode == OP.OP_WITHIN:
            upper = self._pop_number(stack, "OP_WITHIN")
            lower = self._pop_number(stack, "OP_WITHIN")
            value = self._pop_number(stack, "OP_WITHIN")
            stack.append(_bool_bytes(lower <= value < upper))
        elif opcode == OP.OP_RIPEMD160:
            stack.append(ripemd160(self._pop(stack, "OP_RIPEMD160")))
        elif opcode == OP.OP_SHA256:
            stack.append(sha256(self._pop(stack, "OP_SHA256")))
        elif opcode == OP.OP_HASH160:
            stack.append(hash160(self._pop(stack, "OP_HASH160")))
        elif opcode == OP.OP_HASH256:
            stack.append(double_sha256(self._pop(stack, "OP_HASH256")))
        elif opcode in (OP.OP_CHECKSIG, OP.OP_CHECKSIGVERIFY):
            pubkey = self._pop(stack, opcode_name(opcode))
            signature = self._pop(stack, opcode_name(opcode))
            valid = self.context.check_ecdsa_signature(pubkey, signature)
            if opcode == OP.OP_CHECKSIGVERIFY:
                if not valid:
                    raise EvaluationError("OP_CHECKSIGVERIFY failed")
            else:
                stack.append(_bool_bytes(valid))
        elif opcode == OP.OP_CHECKMULTISIG:
            return self._check_multisig(stack)
        elif opcode == OP.OP_CHECKLOCKTIMEVERIFY:
            # BIP-65 semantics: peek (do not pop) the required locktime.
            self._need(stack, 1, "OP_CHECKLOCKTIMEVERIFY")
            try:
                required = decode_number(stack[-1], max_size=5)
            except ScriptError as exc:
                raise EvaluationError(f"OP_CHECKLOCKTIMEVERIFY: {exc}") from exc
            if required < 0:
                raise EvaluationError("negative locktime")
            if not self.context.check_locktime(required):
                raise EvaluationError(
                    f"locktime requirement {required} not satisfied"
                )
        elif opcode == OP.OP_CHECKRSA512PAIR:
            public = self._pop(stack, "OP_CHECKRSA512PAIR")
            private = self._pop(stack, "OP_CHECKRSA512PAIR")
            stack.append(_bool_bytes(check_rsa_pair(public, private)))
        else:
            raise EvaluationError(f"unknown or disabled opcode {opcode_name(opcode)}")
        return 0

    def _check_multisig(self, stack: list[bytes]) -> int:
        """Minimal m-of-n OP_CHECKMULTISIG (with the historical extra pop).

        Returns the key count ``n``, which the evaluator bills against the
        op budget.
        """
        n = self._pop_number(stack, "OP_CHECKMULTISIG")
        if not 0 <= n <= 20:
            raise EvaluationError(f"multisig n out of range: {n}")
        self._need(stack, n, "OP_CHECKMULTISIG")
        pubkeys = [stack.pop() for _ in range(n)]
        m = self._pop_number(stack, "OP_CHECKMULTISIG")
        if not 0 <= m <= n:
            raise EvaluationError(f"multisig m out of range: {m} of {n}")
        self._need(stack, m, "OP_CHECKMULTISIG")
        signatures = [stack.pop() for _ in range(m)]
        # Historical off-by-one: consumes one extra stack item.
        self._pop(stack, "OP_CHECKMULTISIG dummy")
        # Signatures must match pubkeys in order.
        sig_index = 0
        for pubkey in pubkeys:
            if sig_index >= len(signatures):
                break
            if self.context.check_ecdsa_signature(pubkey, signatures[sig_index]):
                sig_index += 1
        stack.append(_bool_bytes(sig_index == len(signatures)))
        return n

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _pop(stack: list[bytes], operation: str) -> bytes:
        if not stack:
            raise EvaluationError(
                f"stack underflow: {operation} needs 1 item, have 0"
            )
        return stack.pop()

    @staticmethod
    def _need(stack: list[bytes], count: int, operation: str) -> None:
        if len(stack) < count:
            raise EvaluationError(
                f"stack underflow: {operation} needs {count} items, "
                f"have {len(stack)}"
            )

    def _pop_number(self, stack: list[bytes], operation: str) -> int:
        data = self._pop(stack, operation)
        try:
            return decode_number(data, max_size=4)
        except ScriptError as exc:
            raise EvaluationError(f"{operation}: {exc}") from exc

    @staticmethod
    def _check_stack(stack: list[bytes], alt_stack: list[bytes]) -> None:
        combined = len(stack) + len(alt_stack)
        if combined > MAX_STACK_SIZE:
            raise EvaluationError(
                f"stack overflow: {combined} items (stack + altstack) "
                f"exceeds limit {MAX_STACK_SIZE}"
            )


_UNARY_NUMERIC = {
    OP.OP_1ADD: lambda a: a + 1,
    OP.OP_1SUB: lambda a: a - 1,
    OP.OP_NEGATE: lambda a: -a,
    OP.OP_ABS: abs,
    OP.OP_NOT: lambda a: int(a == 0),
    OP.OP_0NOTEQUAL: lambda a: int(a != 0),
}

_BINARY_NUMERIC = {
    OP.OP_ADD: lambda a, b: a + b,
    OP.OP_SUB: lambda a, b: a - b,
    OP.OP_BOOLAND: lambda a, b: int(bool(a) and bool(b)),
    OP.OP_BOOLOR: lambda a, b: int(bool(a) or bool(b)),
    OP.OP_NUMEQUAL: lambda a, b: int(a == b),
    OP.OP_NUMNOTEQUAL: lambda a, b: int(a != b),
    OP.OP_LESSTHAN: lambda a, b: int(a < b),
    OP.OP_GREATERTHAN: lambda a, b: int(a > b),
    OP.OP_LESSTHANOREQUAL: lambda a, b: int(a <= b),
    OP.OP_GREATERTHANOREQUAL: lambda a, b: int(a >= b),
    OP.OP_MIN: min,
    OP.OP_MAX: max,
}


def check_rsa_pair(public: bytes, private: bytes) -> bool:
    """The paper's OP_CHECKRSA512PAIR semantics (OpenSSL ``VerifyPubKey``).

    Malformed keys evaluate to False rather than aborting the script, so a
    refund path (Listing 1's OP_ELSE branch) can be taken by pushing any
    non-matching placeholder.
    """
    try:
        public_key = rsa.RSAPublicKey.from_bytes(public)
        private_key = rsa.RSAPrivateKey.from_bytes(private)
    except rsa.RSAError:
        return False
    return private_key.matches(public_key)
