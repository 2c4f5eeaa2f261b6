"""Microbenchmarks of the fast-reject pre-pass.

The claim being measured: on a script whose text dooms it, the scan's
verdict is far cheaper than letting the interpreter grind through the
script to discover the same failure.  pytest-benchmark prints the paired
numbers (``python -m pytest benchmarks/test_microbench_standardness.py``).
"""

from __future__ import annotations

import pytest

from repro.script.analysis import StandardnessPolicy, analyze
from repro.script.builder import ephemeral_key_release, p2pkh_unlocking
from repro.script.interpreter import ScriptInterpreter
from repro.script.opcodes import OP
from repro.script.script import Script


@pytest.fixture(scope="module")
def nonstandard_spend():
    """An expensive spend that always fails: 150 hash rounds of work
    before an OP_RETURN outside every conditional."""
    unlocking = p2pkh_unlocking(b"\x01" * 70, b"\x02" * 66)
    locking = Script(tuple([OP.OP_HASH256] * 150) + (OP.OP_RETURN,))
    # The two paths agree on the verdict before we time them.
    assert ScriptInterpreter().verify(unlocking, locking) is False
    assert StandardnessPolicy().precheck_spend(unlocking, locking) is not None
    return unlocking, locking


def test_bench_nonstandard_full_evaluation(benchmark, nonstandard_spend):
    """The baseline: the interpreter executes 150 hashes, then fails."""
    unlocking, locking = nonstandard_spend
    interpreter = ScriptInterpreter()
    benchmark(lambda: interpreter.verify(unlocking, locking))


def test_bench_nonstandard_fast_reject_cold(benchmark, nonstandard_spend):
    """A fresh policy per round: every verdict pays the scan."""
    unlocking, locking = nonstandard_spend
    benchmark(
        lambda: StandardnessPolicy().precheck_spend(unlocking, locking))


def test_bench_analyze_listing1(benchmark):
    """Scan cost on the paper's real workload script."""
    script = ephemeral_key_release(b"\x03" * 64, b"\x11" * 20,
                                   b"\x22" * 20, 500)
    assert benchmark(lambda: analyze(script)) is None
