"""The exception-flow and unreachable whole-program rules, and the
per-file rules."""

import pytest

from tests.tools.conftest import (FIXDIR, MANIFEST, analyze,
                                  load_fixture_project)
from tools.analysis.callgraph import CallGraph
from tools.analysis.docrefs import DocReferenceRule
from tools.analysis.reach import UnreachableRule, script_targets
from tools.analysis.report import fingerprint, split_by_baseline
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


# -- per-file rules ---------------------------------------------------------------

def _lint(source, path="src/repro/core/somefile.py"):
    from tools.analysis.perfile import check_source
    return check_source(source, path)


def test_accept_result_call_is_clean():
    assert not _lint("result = pool.accept(tx)\n")


def test_multiprocessing_import_is_flagged_anywhere_under_src():
    for source in ("import multiprocessing\n",
                   "from multiprocessing.pool import Pool\n"):
        for path in ("src/repro/core/somefile.py",
                     "src/repro/parallel/pool.py"):
            assert {v.rule for v in _lint(source, path)} == {"multiprocessing"}
    assert not _lint("import multiprocessing\n", "benchmarks/test_x.py")


@pytest.mark.parametrize("rule, scope", [
    ("consensus-wall-clock", "Stamper.arm"),
    ("consensus-float", "Ratio.arm"),
    ("unordered-set-iteration", "fold"),
])
def test_per_file_ban_catches_what_taint_cannot_follow(rule, scope):
    """Why the three construct bans survive beside the taint pass: a value
    parked on ``self`` or fed to ``hasher.update`` reaches the hash where
    taint (locals, arguments, returns) does not follow."""
    _modname, path = MANIFEST["attrflow.py"]
    per_file = _lint((FIXDIR / "attrflow.py").read_text(), path)
    assert (rule, scope) in {(v.rule, v.qualname) for v in per_file}
    assert not [v for v in analyze("attrflow.py")
                if v.rule.startswith("taint-")]


# -- unreachable ---------------------------------------------------------------------

REACH = ("reach_pkg_init.py", "reach_lib.py", "reach_config.py")


def unreachable_findings():
    rule = UnreachableRule(load_fixture_project(*REACH),
                           load_fixture_project("reach_root.py",
                                                "reach_tests.py"))
    return {violation.qualname.partition("repro.")[2]: violation.message
            for violation in rule.run()}


@pytest.mark.parametrize("symbol, verdict", [
    # reached only through the package __init__ re-export
    ("reach.lib.exported_only", "unreferenced"),
    # reached only from tests/
    ("reach.lib.tests_only", "tests-only"),
    # a method nobody calls, and a class nobody builds (its method is
    # subsumed, although it shares a name with a live one)
    ("reach.lib.Service.never_called", "unreferenced"),
    ("reach.lib.Orphan", "unreferenced"),
    ("reach.lib.Orphan.by_name", None),
    # resolved through the re-export, and what that calls
    ("reach.lib.used", None),
    ("reach.lib.helper", None),
    # named only in a "module:Class.method" string of the tracer's form
    ("reach.lib.Traced.hook", None),
    # called through an unresolved receiver, by attribute name
    ("reach.lib.Service.by_name", None),
    ("reach.lib.Service._inner", None),
    # dunder / property / dataclass __post_init__ of a reachable class
    ("reach.lib.Service.__repr__", None),
    ("reach.lib.Service.size", None),
    ("reach.lib.Options.__post_init__", None),
    # config fields: set and read; read but never set; set but never read
    ("core.config.NetworkConfig.seed", None),
    ("core.config.NetworkConfig", "no entry point sets read_never_set ("),
    ("core.config.NetworkConfig.read_never_set", None),
    ("core.config.NetworkConfig.set_never_read", "read by no reachable code"),
])
def test_unreachable_rule(symbol, verdict):
    findings = unreachable_findings()
    if verdict is None:
        assert symbol not in findings
    else:
        assert verdict in findings[symbol]


def test_unreachable_findings_carry_rule_path_and_definition_line():
    project = load_fixture_project(*REACH)
    context = load_fixture_project("reach_root.py", "reach_tests.py")
    by_name = {v.qualname: v for v in UnreachableRule(project, context).run()}
    violation = by_name["repro.reach.lib.tests_only"]
    assert violation.rule == "unreachable"
    assert violation.path == "src/repro/reach/lib.py"
    assert violation.snippet == "def tests_only():"


def test_console_script_targets_are_roots():
    project = load_fixture_project(*REACH)
    context = load_fixture_project("reach_root.py")
    targets = script_targets('[project.scripts]\n'
                             'tool = "repro.reach.lib:exported_only"\n')
    assert targets == ["repro.reach.lib:exported_only"]
    found = {v.qualname for v in
             UnreachableRule(project, context, targets).run()}
    assert "repro.reach.lib.exported_only" not in found
    assert "repro.reach.lib.tests_only" in found


# -- unreachable: parameters with one value in use ---------------------------

def parameter_findings():
    """qualname -> finding, for the parameter part of the rule."""
    rule = UnreachableRule(load_fixture_project("reach_params.py"),
                           load_fixture_project("reach_params_root.py",
                                                "reach_params_tests.py"))
    return {violation.qualname.partition("repro.reach.params.")[2]: violation
            for violation in rule.run()
            if "no entry point passes" in violation.message}


@pytest.mark.parametrize("function, unbound", [
    # a keyword binds its parameter and no other
    ("by_keyword", "b"),
    # positional arguments bind in order; a *args binds the rest
    ("by_position", None),
    ("by_star", None),
    # a **mapping of unknown keys binds everything ...
    ("by_mapping", None),
    # ... unless it forwards the caller's own **kwargs: then what the
    # caller's callers pass it binds, and nothing else
    ("forwarded", "b"),
    ("forwarder", None),
    # super().__init__ binds the base's parameters; Class(...) calls
    # __init__, self skipped
    ("Base.__init__", "colour"),
    ("Child.__init__", None),
    ("Widget.__init__", "height"),
    # an unresolved .resize(3) binds on every method called resize
    ("Widget.resize", "snap"),
    # cls(...) calls the class's own __init__; a static method fills
    # from its first parameter, even through an unresolved receiver, and
    # a method called on its class from self
    ("Factory.__init__", "tag"),
    ("Factory.scale", "exact"),
    ("Factory.rename", "upper"),
    # a function handed out as a value escapes: anything may be passed
    ("callback", None),
    ("planted", "knob"),
    ("tested", "knob"),
])
def test_parameter_bindings(function, unbound):
    findings = parameter_findings()
    if unbound is None:
        assert function not in findings
    else:
        # the names are the snippet, so the fingerprint is the list
        assert findings[function].snippet == unbound


def test_tests_only_parameters_are_starred():
    findings = parameter_findings()
    assert "passes knob* (*: tests do)" in findings["tested"].message
    assert "passes knob (*: tests do)" in findings["planted"].message
    assert "passes b (*: tests do)" in findings["by_keyword"].message


def test_a_planted_one_value_parameter_fails_until_baselined():
    planted = parameter_findings()["planted"]
    assert planted.rule == "unreachable"
    assert planted.path == "src/repro/reach/params.py"
    assert planted.line == 33
    new, known = split_by_baseline([planted], {})
    assert new == [planted] and not known
    baseline = {fingerprint(planted): {"reason": "a knob to retire"}}
    assert split_by_baseline([planted], baseline) == ([], [planted])


# -- unreachable: defaults no call uses ----------------------------------------

def dead_default_findings():
    """qualname -> finding, for the dead-default part of the rule."""
    rule = UnreachableRule(load_fixture_project("reach_params.py"),
                           load_fixture_project("reach_params_root.py",
                                                "reach_params_tests.py"))
    return {violation.qualname.partition("repro.reach.params.")[2]: violation
            for violation in rule.run()
            if "every call passes" in violation.message}


@pytest.mark.parametrize("function, dead", [
    # the root and the test both pass it
    ("dead_default", "scale"),
    # the root passes it; a test leaves it to its default
    ("live_default", None),
    # positional arguments bind in order, keywords by name
    ("by_position", "b, c"),
    ("by_keyword", "c"),
    ("Widget.__init__", "width"),
    # a *args, a **mapping or a forwarded **kwargs may leave any unbound
    ("by_star", None),
    ("by_mapping", None),
    ("forwarded", None),
    # a function or class handed out as a value escapes
    ("callback", None),
    ("Built.__init__", None),
    # no call passes it at all: the one-value check's case
    ("planted", None),
])
def test_dead_defaults(function, dead):
    findings = dead_default_findings()
    if dead is None:
        assert function not in findings
    else:
        assert findings[function].snippet == dead
        assert "a default never used" in findings[function].message


# -- unreachable: fields of every settings class -----------------------------

def settings_findings():
    """qualname -> finding, for the fields of the frozen dataclasses."""
    rule = UnreachableRule(load_fixture_project("reach_settings.py"),
                           load_fixture_project("reach_settings_root.py",
                                                "reach_settings_tests.py"))
    return {violation.qualname.partition("repro.reach.settings.")[2]:
            violation for violation in rule.run()}


def test_a_planted_settings_field_fails_until_baselined():
    """Any frozen dataclass with a default is checked, whatever its name."""
    planted = settings_findings()["Planted"]
    assert planted.snippet == "knob"
    assert "no entry point sets knob* (*: tests do)" in planted.message
    new, known = split_by_baseline([planted], {})
    assert new == [planted] and not known
    baseline = {fingerprint(planted): {"reason": "a knob to retire"}}
    assert split_by_baseline([planted], baseline) == ([], [planted])


def test_positional_arguments_set_fields_in_order():
    findings = settings_findings()
    # Point(1.0) sets x, not y; cls(*bounds) sets every field of Span
    assert findings["Point"].snippet == "y"
    assert "Span" not in findings


def test_a_settings_field_nothing_reads_is_reported():
    findings = settings_findings()
    assert "read by no reachable code" in findings["Letter.stamp"].message
    assert findings["Letter.stamp"].line == 31
    # a field the constructor does not take is not a setting; a class
    # with no default, or not frozen, is not a settings class
    assert "Letter" not in findings and "Letter.cache" not in findings
    assert "Record.unread" not in findings and "Loose" not in findings


# -- doc-reference ---------------------------------------------------------------

def test_doc_references_must_point_at_code_that_exists():
    project = load_fixture_project(*REACH)
    line_counts = {module.path: len(module.source_lines)
                   for module in project.modules.values()}
    docs = {"ROADMAP.md": (FIXDIR / "docrefs.md").read_text()}
    found = sorted((v.path, v.line, v.qualname, v.message) for v in
                   DocReferenceRule(project, docs, line_counts).run())
    assert found == [
        ("ROADMAP.md", 4, "reach/lib.py:66",
         "`reach/lib.py:66` is past the end of src/repro/reach/lib.py "
         "(65 lines)"),
        ("ROADMAP.md", 5, "reach/gone.py:1", "`reach/gone.py:1` names no file"),
        ("ROADMAP.md", 13, "repro.reach.lib.planned",
         "`repro.reach.lib.planned` names nothing in src/repro"),
        ("ROADMAP.md", 15, "repro.reach.lib.Service.planned_method",
         "`repro.reach.lib.Service.planned_method` names nothing in "
         "src/repro"),
    ]
