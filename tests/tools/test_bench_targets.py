"""Every name the benchmark's tracer rebinds still resolves in ``src/``.

``bench/tracing.py`` (frozen) instruments the program from outside: it
looks each ``module:function`` / ``module:Class.method`` target up by
name — a method through ``Class.__dict__``, so one hoisted into a base
class is *not* found — and a miss fails the traced benchmark run, long
after tier-1 went green.  This resolves the same names the same way, so a
rename fails here instead.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "bench"

pytestmark = pytest.mark.skipif(
    not (BENCH / "tracing.py").exists(),
    reason="this checkout carries no bench/ to hold src/ to")


def _targets() -> tuple[list[str], dict[str, str]]:
    if not (BENCH / "tracing.py").exists():
        return [], {}
    from bench import tracing
    calls = [target for _name, targets, _after in tracing.CALLS
             for target in targets]
    return calls, dict(tracing.REGISTRARS)


CALL_TARGETS, REGISTRAR_TARGETS = _targets()


def _resolve(target: str):
    """As ``Recorder.install`` does: the function a module exposes under
    that name, or the attribute defined on the named class itself."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        return getattr(module, qualname)
    class_name, attribute = qualname.split(".")
    return getattr(module, class_name).__dict__[attribute]


@pytest.mark.parametrize("target", CALL_TARGETS)
def test_traced_call_resolves(target):
    assert callable(_resolve(target)), target


@pytest.mark.parametrize("target", sorted(REGISTRAR_TARGETS))
def test_traced_registrar_resolves_with_its_parameter(target):
    original = _resolve(target)
    assert REGISTRAR_TARGETS[target] in inspect.signature(original).parameters


def test_the_tracer_names_something():
    assert CALL_TARGETS and REGISTRAR_TARGETS
