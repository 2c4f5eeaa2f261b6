"""Static analysis of BcWAN scripts: prove properties without executing.

Two consumers drive this module:

* **Standardness** — the mempool wants to turn away transactions whose
  outputs can never be spent (constant-false locks, value burned into
  ``OP_RETURN``) or whose scripts do not match a known template, before
  paying for signature checks.  This mirrors production-chain policy
  rules: consensus stays permissive, admission stays strict.
* **Fast-reject** — the validation engine wants to skip interpreter
  execution entirely when a spend *provably* fails: unbalanced
  ``OP_IF``/``OP_ENDIF``, guaranteed stack underflow, an op count over
  the consensus limit, an unconditional ``OP_RETURN``.  Rejecting those
  statically is consensus-equivalent (execution would fail too) and
  much cheaper than running the stack machine.

The core is :func:`analyze`, an abstract interpreter over
:class:`~repro.script.script.Script` that tracks the main and alt stack
depths as intervals ``[lo, hi]``, joins the intervals at
``OP_ELSE``/``OP_ENDIF`` branch merges, bills a worst-case op budget
(including ``OP_CHECKMULTISIG``'s per-key charge), and statically
audits ``OP_CHECKLOCKTIMEVERIFY`` operands.  Every finding is a
:class:`ScriptIssue` with one of three severities:

* ``fatal`` — execution of the script provably fails (or, at the end of
  a conditional arm, every arm fails).  Safe to reject in consensus
  paths.
* ``nonstandard`` — executable, but violates standardness policy
  (e.g. a non-minimally-encoded locktime operand).
* ``info`` — a data-dependent hazard the analyzer cannot decide
  (possible underflow, a dead conditional arm, dynamic-depth opcodes).

:class:`StandardnessPolicy` packages the analyses behind a bounded
verdict cache (keyed by the immutable ``Script`` itself) with hit/miss
counters, and is owned by the
:class:`~repro.blockchain.engine.ValidationEngine` so the mempool and
block pipeline share one set of verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.ecdsa import CURVE_ORDER
from repro.script.builder import parse_ephemeral_key_release
from repro.script.errors import ScriptError
from repro.script.interpreter import MAX_OPS, MAX_STACK_SIZE
from repro.script.opcodes import OP, opcode_name
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
    "ScriptIssue",
    "ScriptAnalysis",
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

# Constant pushes: opcodes whose only effect is pushing a fixed value.
_CONSTANT_PUSH_OPS = frozenset(
    {int(OP.OP_0), int(OP.OP_1NEGATE)}
    | {int(op) for op in range(OP.OP_1, OP.OP_16 + 1)}
)


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
    # An OP_RETURN outside any conditional always executes and always
    # aborts: the output is provably unspendable wherever it appears.
    depth = 0
    for element in elements:
        if isinstance(element, bytes):
            continue
        if element in (OP.OP_IF, OP.OP_NOTIF):
            depth += 1
        elif element == OP.OP_ENDIF and depth > 0:
            depth -= 1
        elif element == OP.OP_RETURN and depth == 0:
            return OUTPUT_UNSPENDABLE
    return OUTPUT_NONSTANDARD


# -- issues -------------------------------------------------------------------

SEVERITY_FATAL = "fatal"
SEVERITY_NONSTANDARD = "nonstandard"
SEVERITY_INFO = "info"


@dataclass(frozen=True)
class ScriptIssue:
    """One finding of the static analyzer."""

    code: str
    message: str
    severity: str = SEVERITY_INFO

    @property
    def fatal(self) -> bool:
        return self.severity == SEVERITY_FATAL


@dataclass(frozen=True)
class ScriptAnalysis:
    """What :func:`analyze` proved about one script.

    Stack figures are absolute depths given the initial-depth interval
    the analysis ran with; ``max_stack`` is the worst-case combined
    (main + alt) high-water mark checked against ``MAX_STACK_SIZE``.
    """

    issues: tuple[ScriptIssue, ...]
    op_count_min: int
    op_count_max: int
    max_stack: int
    final_lo: int
    final_hi: int
    push_count: int

    @property
    def fatal(self) -> bool:
        """Execution provably fails (safe to reject without running)."""
        return any(issue.fatal for issue in self.issues)

    @property
    def first_fatal(self) -> Optional[ScriptIssue]:
        for issue in self.issues:
            if issue.fatal:
                return issue
        return None

    @property
    def standard(self) -> bool:
        """No fatal and no standardness violations."""
        return not any(issue.severity in (SEVERITY_FATAL, SEVERITY_NONSTANDARD)
                       for issue in self.issues)

    def first_rejectable(self) -> Optional[ScriptIssue]:
        """The first fatal-or-nonstandard issue, if any."""
        for issue in self.issues:
            if issue.severity in (SEVERITY_FATAL, SEVERITY_NONSTANDARD):
                return issue
        return None


# -- the abstract machine -----------------------------------------------------

# opcode -> (items required on the main stack, net-depth delta lo, hi).
_EFFECTS: dict[int, tuple[int, int, int]] = {
    int(OP.OP_NOP): (0, 0, 0),
    int(OP.OP_VERIFY): (1, -1, -1),
    int(OP.OP_2DROP): (2, -2, -2),
    int(OP.OP_2DUP): (2, 2, 2),
    int(OP.OP_3DUP): (3, 3, 3),
    int(OP.OP_2OVER): (4, 2, 2),
    int(OP.OP_2ROT): (6, 0, 0),
    int(OP.OP_2SWAP): (4, 0, 0),
    int(OP.OP_IFDUP): (1, 0, 1),
    int(OP.OP_DEPTH): (0, 1, 1),
    int(OP.OP_DROP): (1, -1, -1),
    int(OP.OP_DUP): (1, 1, 1),
    int(OP.OP_NIP): (2, -1, -1),
    int(OP.OP_OVER): (2, 1, 1),
    int(OP.OP_PICK): (2, 0, 0),
    int(OP.OP_ROLL): (2, -1, -1),
    int(OP.OP_ROT): (3, 0, 0),
    int(OP.OP_SWAP): (2, 0, 0),
    int(OP.OP_TUCK): (2, 1, 1),
    int(OP.OP_SIZE): (1, 1, 1),
    int(OP.OP_EQUAL): (2, -1, -1),
    int(OP.OP_EQUALVERIFY): (2, -2, -2),
    int(OP.OP_1ADD): (1, 0, 0),
    int(OP.OP_1SUB): (1, 0, 0),
    int(OP.OP_NEGATE): (1, 0, 0),
    int(OP.OP_ABS): (1, 0, 0),
    int(OP.OP_NOT): (1, 0, 0),
    int(OP.OP_0NOTEQUAL): (1, 0, 0),
    int(OP.OP_ADD): (2, -1, -1),
    int(OP.OP_SUB): (2, -1, -1),
    int(OP.OP_BOOLAND): (2, -1, -1),
    int(OP.OP_BOOLOR): (2, -1, -1),
    int(OP.OP_NUMEQUAL): (2, -1, -1),
    int(OP.OP_NUMEQUALVERIFY): (2, -2, -2),
    int(OP.OP_NUMNOTEQUAL): (2, -1, -1),
    int(OP.OP_LESSTHAN): (2, -1, -1),
    int(OP.OP_GREATERTHAN): (2, -1, -1),
    int(OP.OP_LESSTHANOREQUAL): (2, -1, -1),
    int(OP.OP_GREATERTHANOREQUAL): (2, -1, -1),
    int(OP.OP_MIN): (2, -1, -1),
    int(OP.OP_MAX): (2, -1, -1),
    int(OP.OP_WITHIN): (3, -2, -2),
    int(OP.OP_RIPEMD160): (1, 0, 0),
    int(OP.OP_SHA256): (1, 0, 0),
    int(OP.OP_HASH160): (1, 0, 0),
    int(OP.OP_HASH256): (1, 0, 0),
    int(OP.OP_CHECKSIG): (2, -1, -1),
    int(OP.OP_CHECKSIGVERIFY): (2, -2, -2),
    # OP_CHECKMULTISIG minimally pops n, m, and the historical dummy;
    # at the 20-key/20-sig worst case it pops 43 and pushes 1.
    int(OP.OP_CHECKMULTISIG): (3, -42, -2),
    int(OP.OP_CHECKLOCKTIMEVERIFY): (1, 0, 0),  # BIP-65: peeks, never pops
    int(OP.OP_CHECKRSA512PAIR): (2, -1, -1),
}

# Opcodes whose true depth requirement depends on runtime data — the
# analyzer can only bound them, so a reachable underflow stays possible
# even when the static minimum is satisfied.
_DYNAMIC_DEPTH_OPS = frozenset({
    int(OP.OP_PICK), int(OP.OP_ROLL), int(OP.OP_CHECKMULTISIG),
})

_FLOW_OPS = frozenset({
    int(OP.OP_IF), int(OP.OP_NOTIF), int(OP.OP_ELSE), int(OP.OP_ENDIF),
})

#: Every integer element the interpreter can execute without raising
#: "unknown or disabled opcode".
KNOWN_OPCODES = frozenset(
    set(_EFFECTS) | _CONSTANT_PUSH_OPS | _FLOW_OPS
    | {int(OP.OP_RETURN), int(OP.OP_TOALTSTACK), int(OP.OP_FROMALTSTACK)}
)


@dataclass
class _State:
    """Abstract machine state: depth intervals for both stacks."""

    lo: int
    hi: int
    alo: int
    ahi: int
    dead: bool = False

    def copy(self) -> "_State":
        return _State(self.lo, self.hi, self.alo, self.ahi, self.dead)


@dataclass
class _Frame:
    """One open OP_IF: the entry state plus completed arm exits."""

    entry: _State
    arms: list[_State] = field(default_factory=list)
    else_count: int = 0
    widened: bool = False


def _join(states: list[_State]) -> _State:
    alive = [s for s in states if not s.dead]
    if not alive:
        return _State(0, 0, 0, 0, dead=True)
    return _State(
        lo=min(s.lo for s in alive),
        hi=max(s.hi for s in alive),
        alo=min(s.alo for s in alive),
        ahi=max(s.ahi for s in alive),
    )


class _Analyzer:
    """One analysis run; collects issues and walks the element stream."""

    def __init__(self, script: Script, initial: tuple[int, int],
                 unknown_input: bool) -> None:
        self.script = script
        self.unknown_input = unknown_input
        self.state = _State(lo=initial[0], hi=initial[1], alo=0, ahi=0)
        self.frames: list[_Frame] = []
        self.issues: list[ScriptIssue] = []
        self._seen: set[tuple[str, str]] = set()
        self.ops_min = 0
        self.ops_max = 0
        self.max_stack = self.state.hi
        self.push_count = 0

    # -- issue plumbing -----------------------------------------------------

    def note(self, code: str, message: str,
             severity: str = SEVERITY_INFO) -> None:
        if severity == SEVERITY_INFO and self.unknown_input and \
                code.startswith("possible-"):
            # With an unknown starting depth every op "possibly"
            # underflows; the hedged findings carry no signal.
            return
        key = (code, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.issues.append(ScriptIssue(code=code, message=message,
                                       severity=severity))

    def kill(self, code: str, message: str) -> None:
        """The current path provably fails at this element.

        Outside any conditional that dooms the whole script (fatal);
        inside an arm it only dooms that arm, which dies and is excluded
        from the join — the other arm may still save the spend.
        """
        if self.frames:
            self.note(code, f"{message} (conditional arm always fails)",
                      SEVERITY_INFO)
        else:
            self.note(code, message, SEVERITY_FATAL)
        self.state.dead = True

    # -- stack-effect application -------------------------------------------

    def apply(self, op_name: str, needs: int, dlo: int, dhi: int,
              alt_needs: int = 0, alt_dlo: int = 0, alt_dhi: int = 0,
              dynamic: bool = False) -> None:
        state = self.state
        if state.dead:
            return
        if state.hi < needs:
            self.kill("stack-underflow",
                      f"stack underflow: {op_name} needs {needs}, "
                      f"at most {state.hi} available")
            return
        if state.ahi < alt_needs:
            self.kill("altstack-underflow",
                      f"altstack underflow: {op_name} needs {alt_needs}, "
                      f"at most {state.ahi} available")
            return
        if state.lo < needs:
            self.note("possible-underflow",
                      f"{op_name} may underflow: needs {needs}, "
                      f"as few as {state.lo} available")
            state.lo = needs
        if alt_needs and state.alo < alt_needs:
            self.note("possible-altstack-underflow",
                      f"{op_name} may underflow the altstack")
            state.alo = alt_needs
        if dynamic:
            self.note("dynamic-depth",
                      f"{op_name} consumes a data-dependent number of items")
        state.lo = max(state.lo + dlo, 0)
        state.hi += dhi
        state.alo = max(state.alo + alt_dlo, 0)
        state.ahi += alt_dhi
        combined_lo = state.lo + state.alo
        combined_hi = state.hi + state.ahi
        self.max_stack = max(self.max_stack, combined_hi)
        if combined_lo > MAX_STACK_SIZE:
            self.kill("stack-overflow",
                      f"stack overflow: at least {combined_lo} items, "
                      f"limit {MAX_STACK_SIZE}")
        elif combined_hi > MAX_STACK_SIZE:
            self.note("possible-stack-overflow",
                      f"stack may overflow: up to {combined_hi} items, "
                      f"limit {MAX_STACK_SIZE}")

    def bill_op(self, opcode: int) -> None:
        if opcode <= OP.OP_16:
            return
        self.ops_min += 1
        self.ops_max += 1
        if opcode == OP.OP_CHECKMULTISIG:
            # Executed multisigs bill one op per key: worst case 20.
            self.ops_max += 20
        if self.ops_min > MAX_OPS:
            self.note("op-limit",
                      f"too many opcodes: {self.ops_min} > {MAX_OPS}",
                      SEVERITY_FATAL)
        elif self.ops_max > MAX_OPS:
            self.note("possible-op-limit",
                      f"worst-case op count {self.ops_max} exceeds {MAX_OPS} "
                      f"(multisig key billing)")

    # -- CLTV operand audit --------------------------------------------------

    def audit_cltv_operand(self, prev: Optional[ScriptElement]) -> None:
        operand = _constant_value(prev) if prev is not None else None
        if operand is None:
            self.note("cltv-dynamic-operand",
                      "OP_CHECKLOCKTIMEVERIFY operand is not a static push; "
                      "locktime cannot be audited before execution")
            return
        try:
            value = decode_number(operand, max_size=5)
        except ScriptError:
            self.kill("cltv-bad-operand",
                      f"OP_CHECKLOCKTIMEVERIFY operand {operand.hex()} "
                      f"does not decode as a locktime")
            return
        if value < 0:
            self.kill("cltv-negative",
                      f"OP_CHECKLOCKTIMEVERIFY with negative locktime {value}")
            return
        if encode_number(value) != operand:
            # Executes fine (decode_number tolerates padding) but is
            # malleable: two encodings of one locktime hash differently.
            self.note("cltv-nonminimal",
                      f"OP_CHECKLOCKTIMEVERIFY operand {operand.hex()} is "
                      f"not minimally encoded for {value}",
                      SEVERITY_NONSTANDARD)

    # -- the walk ------------------------------------------------------------

    def run(self) -> ScriptAnalysis:
        prev: Optional[ScriptElement] = None
        for element in self.script.elements:
            if isinstance(element, bytes):
                self.push_count += 1
                self.apply(f"push of {len(element)} bytes", 0, 1, 1)
                prev = element
                continue

            opcode = int(element)
            self.bill_op(opcode)

            if opcode in (OP.OP_IF, OP.OP_NOTIF):
                if self.state.dead:
                    self.frames.append(_Frame(entry=self.state.copy()))
                else:
                    self.apply(opcode_name(opcode), 1, -1, -1)
                    self.frames.append(_Frame(entry=self.state.copy()))
            elif opcode == OP.OP_ELSE:
                if not self.frames:
                    self.note("else-without-if", "OP_ELSE without OP_IF",
                              SEVERITY_FATAL)
                    self.state.dead = True
                else:
                    frame = self.frames[-1]
                    frame.arms.append(self.state.copy())
                    frame.else_count += 1
                    if frame.else_count > 1 and not frame.widened:
                        frame.widened = True
                        self.note("multi-else",
                                  "multiple OP_ELSE in one conditional: "
                                  "arms may execute in combination",
                                  SEVERITY_NONSTANDARD)
                    self.state = frame.entry.copy()
            elif opcode == OP.OP_ENDIF:
                if not self.frames:
                    self.note("endif-without-if", "OP_ENDIF without OP_IF",
                              SEVERITY_FATAL)
                    self.state.dead = True
                else:
                    frame = self.frames.pop()
                    frame.arms.append(self.state.copy())
                    if frame.else_count == 0:
                        # No OP_ELSE: a false condition skips the arm.
                        frame.arms.append(frame.entry.copy())
                    if frame.widened:
                        # Toggled arms can run in combination; give up
                        # precision rather than mis-join.
                        self.state = _State(0, MAX_STACK_SIZE, 0,
                                            MAX_STACK_SIZE,
                                            dead=frame.entry.dead)
                    else:
                        joined = _join(frame.arms)
                        if joined.dead and not frame.entry.dead:
                            if self.frames:
                                self.note("all-arms-fail",
                                          "every arm of this conditional "
                                          "fails (nested)", SEVERITY_INFO)
                            else:
                                self.note("all-arms-fail",
                                          "every arm of the conditional "
                                          "provably fails", SEVERITY_FATAL)
                        self.state = joined
            elif opcode == OP.OP_RETURN:
                self.kill("unspendable",
                          "OP_RETURN aborts execution unconditionally"
                          if not self.frames else "OP_RETURN aborts execution")
            elif opcode == OP.OP_TOALTSTACK:
                self.apply("OP_TOALTSTACK", 1, -1, -1,
                           alt_dlo=1, alt_dhi=1)
            elif opcode == OP.OP_FROMALTSTACK:
                self.apply("OP_FROMALTSTACK", 0, 1, 1,
                           alt_needs=1, alt_dlo=-1, alt_dhi=-1)
            elif opcode in _CONSTANT_PUSH_OPS:
                self.apply(opcode_name(opcode), 0, 1, 1)
            elif opcode in _EFFECTS:
                if opcode == OP.OP_CHECKLOCKTIMEVERIFY and \
                        not self.state.dead:
                    self.audit_cltv_operand(prev)
                if not self.state.dead:
                    needs, dlo, dhi = _EFFECTS[opcode]
                    self.apply(opcode_name(opcode), needs, dlo, dhi,
                               dynamic=opcode in _DYNAMIC_DEPTH_OPS)
            else:
                self.kill("unknown-opcode",
                          f"unknown or disabled opcode {opcode_name(opcode)}")
            prev = element

        if self.frames:
            self.note("unbalanced-conditional", "unbalanced OP_IF/OP_ENDIF",
                      SEVERITY_FATAL)
        return ScriptAnalysis(
            issues=tuple(self.issues),
            op_count_min=self.ops_min,
            op_count_max=self.ops_max,
            max_stack=self.max_stack,
            final_lo=self.state.lo,
            final_hi=self.state.hi,
            push_count=self.push_count,
        )


def analyze(script: Script, initial: tuple[int, int] = (0, 0),
            assume_unknown_input: bool = False) -> ScriptAnalysis:
    """Statically analyze one script.

    :param initial: main-stack depth interval the script starts with —
        ``(0, 0)`` models standalone evaluation on an empty stack (an
        unlocking script); a locking script starts from the unlocking
        script's final interval.
    :param assume_unknown_input: analyze with a fully unknown starting
        depth (used when auditing a locking script at output-creation
        time, before any spender exists); suppresses the hedged
        ``possible-*`` findings that would otherwise fire on every op.
    """
    if assume_unknown_input:
        initial = (0, MAX_STACK_SIZE)
    return _Analyzer(script, initial, assume_unknown_input).run()


# -- the policy ---------------------------------------------------------------

@dataclass
class StandardnessStats:
    """Counters of one policy instance (telemetry-facing)."""

    tx_checked: int = 0
    tx_rejected: int = 0
    spends_prechecked: int = 0
    fast_rejects: int = 0
    analyses: int = 0
    analysis_cache_hits: int = 0
    output_classes: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "StandardnessStats":
        return StandardnessStats(
            tx_checked=self.tx_checked,
            tx_rejected=self.tx_rejected,
            spends_prechecked=self.spends_prechecked,
            fast_rejects=self.fast_rejects,
            analyses=self.analyses,
            analysis_cache_hits=self.analysis_cache_hits,
            output_classes=dict(self.output_classes),
        )


class StandardnessPolicy:
    """Pre-execution script vetting with a bounded analysis cache.

    Two distinct duties, with different authority:

    * :meth:`check_transaction` is **policy**: it may reject perfectly
      executable transactions (non-standard output shapes, non-push
      unlocking scripts, value burned into OP_RETURN).  Only the
      mempool calls it; blocks are exempt.
    * :meth:`precheck_spend` is **consensus-safe**: it only reports
      spends whose execution provably fails, so the validation engine
      may skip the interpreter for both mempool and block paths without
      changing any verdict.

    ``analyses`` maps ``(script, lo, hi, assume_unknown_input)`` to its
    :class:`ScriptAnalysis`, a pure function of the key: policies may
    share one dict (a deployment's engines do), while ``stats`` stays
    each policy's own count of the checks it made.
    """

    def __init__(self, max_cache_entries: int = 1 << 14) -> None:
        self.max_cache_entries = max_cache_entries
        self.analyses: dict[tuple[Script, int, int, bool],
                            ScriptAnalysis] = {}
        self.stats = StandardnessStats()

    # -- cached analysis -----------------------------------------------------

    def analysis_for(self, script: Script,
                     initial: tuple[int, int] = (0, 0),
                     assume_unknown_input: bool = False) -> ScriptAnalysis:
        """The (cached) analysis of ``script`` from ``initial`` depth."""
        key = (script, initial[0], initial[1], assume_unknown_input)
        analyses = self.analyses
        cached = analyses.get(key)
        if cached is not None:
            self.stats.analysis_cache_hits += 1
            return cached
        self.stats.analyses += 1
        result = analyze(script, initial=initial,
                         assume_unknown_input=assume_unknown_input)
        if len(analyses) >= self.max_cache_entries:
            analyses.pop(next(iter(analyses)))
        analyses[key] = result
        return result

    @property
    def cache_size(self) -> int:
        return len(self.analyses)

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
        issue = self.analysis_for(
            script_pubkey, assume_unknown_input=True).first_rejectable()
        if issue is not None:
            return (f"'{cls}' output fails static analysis: {issue.message}")
        return None

    def check_transaction(self, tx) -> Optional[str]:
        """The mempool's standardness pre-pass; returns a reason or None.

        Purely static — touches no chain state and executes no script,
        so it runs before input resolution and signature checks.
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
                issue = self.analysis_for(script_sig,
                                          initial=(0, 0)).first_fatal
                if issue is not None:
                    return (f"input {index} unlocking script provably "
                            f"fails: {issue.message}")
                # Canonical-signature policy (the BIP 62 half of it): a
                # high-S signature is the malleable twin of a low-S one
                # the signer could have produced instead.  Consensus
                # accepts both — this is standardness only, so the
                # mempool stops malleated relays at the door.
                for element in script_sig.elements:
                    if _is_high_s_signature(element):
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
        """Reject a spend without executing it, when failure is provable.

        Returns a reason only when *every* execution of the pair fails —
        the interpreter would reject too, so callers on consensus paths
        may skip it.  ``None`` means "must execute to decide".
        """
        self.stats.spends_prechecked += 1
        unlock_analysis = self.analysis_for(unlocking, initial=(0, 0))
        issue = unlock_analysis.first_fatal
        if issue is not None:
            return f"unlocking script provably fails: {issue.message}"
        lock_analysis = self.analysis_for(
            locking,
            initial=(unlock_analysis.final_lo, unlock_analysis.final_hi),
        )
        issue = lock_analysis.first_fatal
        if issue is not None:
            return f"locking script provably fails: {issue.message}"
        if lock_analysis.final_hi == 0:
            return "spend provably finishes with an empty stack"
        return None
