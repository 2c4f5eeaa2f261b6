"""The repo's one static analyzer: ``python -m tools.analysis``.

Per-file rules and whole-program passes share one finding type
(:class:`~tools.analysis.report.Violation`), one pragma
(``# lint: allow(<rule>)``) and one baseline
(``tools/analysis/baseline.json``):

* :mod:`tools.analysis.perfile` — the rules one module's AST decides
  (bare ``except``, banned constructs in consensus packages, ad-hoc
  telemetry, ``multiprocessing`` under ``src/repro``);
* :mod:`tools.analysis.taint` — interprocedural taint from
  nondeterminism sources (wall-clock, unseeded RNG, float arithmetic,
  unordered-set iteration, hash-randomized values) into determinism
  sinks (hash preimages, block connection and mempool admission, the
  BCWCP1 checkpoint codec, the deterministic JSONL export);
* :mod:`tools.analysis.rules` — the exception-flow rule (broad handlers
  that can swallow consensus errors);
* :mod:`tools.analysis.reach` — the ``unreachable`` rule: definitions
  no entry point reaches, config fields and defaulted parameters no
  entry point sets, and defaulted parameters every call sets;
* :mod:`tools.analysis.docrefs` — the ``doc-reference`` rule: every
  backticked ``path.py:N`` and ``repro.…`` name of the living docs
  points at code that exists;
* :mod:`tools.analysis.report` — stable finding fingerprints, the
  ``json``/``sarif`` output formats, and the baseline workflow.

The whole-program passes run over the project model of ``src/repro``
(:mod:`tools.analysis.project`, :mod:`tools.analysis.callgraph`);
:func:`run_whole_program` is the library-level hook.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from tools.analysis.callgraph import CallGraph
from tools.analysis.docrefs import DocReferenceRule, read_docs
from tools.analysis.project import Project
from tools.analysis.reach import UnreachableRule, script_targets
from tools.analysis.report import Violation
from tools.analysis.rules import ExceptionFlowRule
from tools.analysis.taint import TaintAnalyzer

__all__ = [
    "CallGraph", "Project", "TaintAnalyzer", "ExceptionFlowRule",
    "UnreachableRule", "DocReferenceRule", "Violation", "run_whole_program",
    "analyze_project",
]

#: Where the program is run from; ``tests/`` only marks ``tests-only``.
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")
#: Deliberate-violation corpora for the analyzer's own tests.
EXCLUDED_FRAGMENTS = ("tests/tools/fixtures/",)


def analyze_project(project: Project, context: Optional[Project] = None,
                    targets: Iterable[str] = ()) -> list[Violation]:
    """Run every whole-program pass over an already-built project.

    ``context`` holds the modules around the program (entry points and
    tests); without any, reachability cannot be judged and is skipped.
    """
    graph = CallGraph(project)
    violations: list[Violation] = []
    violations.extend(TaintAnalyzer(project, graph).run())
    violations.extend(ExceptionFlowRule(project, graph).run())
    if context is not None and context.modules:
        violations.extend(UnreachableRule(project, context, targets).run())
    return violations


def run_whole_program(root: Path) -> list[Violation]:
    """Build the project model of ``root/src/repro`` and analyze it, then
    hold the living docs under ``root`` to it."""
    pyproject = root / "pyproject.toml"
    project = Project.load(root, "src/repro")
    context = Project.load(root, *ROOT_DIRS, "tests",
                           exclude=EXCLUDED_FRAGMENTS)
    violations = analyze_project(
        project, context,
        script_targets(pyproject.read_text(encoding="utf-8"))
        if pyproject.exists() else ())
    line_counts = {module.path: len(module.source_lines)
                   for model in (project, context)
                   for module in model.modules.values()}
    violations.extend(
        DocReferenceRule(project, read_docs(root), line_counts).run())
    return violations
