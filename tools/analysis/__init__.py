"""Whole-program determinism analysis for the BcWAN reproduction.

Where :mod:`tools.checks` lints one file at a time, this package builds
a project-wide symbol table and call graph over ``src/repro`` and runs
the passes that need them:

* :mod:`tools.analysis.taint` — interprocedural taint from
  nondeterminism sources (wall-clock, unseeded RNG, float arithmetic,
  unordered-set iteration, hash-randomized values) into determinism
  sinks (hash preimages, block connection and mempool admission, the
  BCWCP1 checkpoint codec, the deterministic JSONL export);
* :mod:`tools.analysis.rules` — the exception-flow rule (broad handlers
  that can swallow consensus errors);
* :mod:`tools.analysis.report` — stable finding fingerprints, the
  ``json``/``sarif`` output formats, and the baseline workflow.

The unified entry point stays ``python -m tools.checks``: it runs the
per-file checkers *and* this whole-program pass, so CI needs exactly one
command.  :func:`run_whole_program` is the library-level hook.
"""

from __future__ import annotations

from pathlib import Path

from tools.analysis.callgraph import CallGraph
from tools.analysis.project import Project
from tools.analysis.rules import ExceptionFlowRule
from tools.analysis.taint import TaintAnalyzer
from tools.checks import Violation

__all__ = [
    "CallGraph", "Project", "TaintAnalyzer", "ExceptionFlowRule",
    "run_whole_program", "analyze_project",
]


def analyze_project(project: Project) -> list[Violation]:
    """Run every whole-program pass over an already-built project."""
    graph = CallGraph(project)
    violations: list[Violation] = []
    violations.extend(TaintAnalyzer(project, graph).run())
    violations.extend(ExceptionFlowRule(project, graph).run())
    return violations


def run_whole_program(root: Path,
                      package_dir: str = "src/repro") -> list[Violation]:
    """Build the project model for ``root/package_dir`` and analyze it."""
    if not (root / package_dir).is_dir():
        return []
    return analyze_project(Project.load(root, package_dir))
