"""The exception-flow whole-program rule and the per-file import lints."""

from tests.tools.conftest import load_fixture_project
from tools.analysis.callgraph import CallGraph
from tools.analysis.rules import ExceptionFlowRule


def run_rule(rule_cls, *names):
    project = load_fixture_project(*names)
    return rule_cls(project, CallGraph(project)).run()


# -- exception-flow ------------------------------------------------------------

def test_broad_handler_swallowing_validation_error_is_flagged():
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    flagged = {violation.qualname.rpartition(".")[2]
               for violation in violations}
    assert flagged == {"swallowing"}


def test_exception_flow_trace_names_the_raise_site():
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    violation = violations[0]
    assert violation.rule == "exception-flow"
    assert "ValidationError" in violation.message
    assert any("strict_check" in hop for hop in violation.trace)


def test_rethrowing_handler_not_flagged():
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    names = {violation.qualname.rpartition(".")[2]
             for violation in violations}
    assert "rethrowing" not in names


def test_narrow_handler_not_flagged():
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    names = {violation.qualname.rpartition(".")[2]
             for violation in violations}
    assert "narrow" not in names


def test_guarded_wrapper_does_not_propagate_may_raise():
    # guarded() catches ValidationError itself, so wrapper_swallow's
    # broad handler has nothing consensus-shaped to swallow.
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    names = {violation.qualname.rpartition(".")[2]
             for violation in violations}
    assert "wrapper_swallow" not in names


def test_exception_flow_pragma_suppresses():
    violations = run_rule(ExceptionFlowRule, "exflow.py")
    names = {violation.qualname.rpartition(".")[2]
             for violation in violations}
    assert "pragma_ok" not in names


# -- per-file deprecated-import lint -------------------------------------------

def _lint(source, path="src/repro/core/somefile.py"):
    from tools.checks import check_source
    from tools.checks.checkers import ALL_CHECKERS
    return check_source(source, path, ALL_CHECKERS)


def test_deprecated_shim_import_hard_fails_despite_pragma():
    source = ("from repro.core.metrics import ExchangeTracker"
              "  # lint: allow(deprecated-shim)\n")
    rules = {v.rule for v in _lint(source)}
    assert "deprecated-shim" in rules


def test_deprecated_validation_import_hard_fails_despite_pragma():
    source = ("from repro.blockchain import validation"
              "  # lint: allow(deprecated-validation)\n")
    rules = {v.rule for v in _lint(source)}
    assert "deprecated-validation" in rules


def test_accept_result_call_is_clean():
    assert not _lint("result = pool.accept(tx)\n")


def test_multiprocessing_import_is_flagged_anywhere_under_src():
    for source in ("import multiprocessing\n",
                   "from multiprocessing.pool import Pool\n"):
        for path in ("src/repro/core/somefile.py",
                     "src/repro/parallel/pool.py"):
            assert {v.rule for v in _lint(source, path)} == {"multiprocessing"}
    assert not _lint("import multiprocessing\n", "benchmarks/test_x.py")
