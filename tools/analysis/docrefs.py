"""The ``doc-reference`` rule: the living docs point at code that exists.

DESIGN.md, docs/PROTOCOL.md, README.md and ROADMAP.md cite the code in
two forms inside backticks: a ``path.py:N`` line reference (repo-relative,
or relative to ``src/repro`` as the docs mostly write them) and a dotted
``repro.…`` name.  A line reference must fall inside its file.  A dotted
name must resolve through :meth:`Project.lookup` to a module, class or
function, or to a name such a module or class binds in its own body (a
constant, a dataclass field).  PAPER.md (the source summary),
EXPERIMENTS.md and CHANGES.md (dated records) are not checked.

A finding's fingerprint is the rule, the doc and the reference text, never
the line, so a planned name stays one baseline entry wherever its
paragraph moves; a doc that repeats a bad reference gets one finding, at
its first line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional

from tools.analysis.project import Project
from tools.analysis.report import Violation

__all__ = ["LIVING_DOCS", "DocReferenceRule", "read_docs"]

RULE = "doc-reference"
LIVING_DOCS = ("DESIGN.md", "docs/PROTOCOL.md", "README.md", "ROADMAP.md")
_FENCE = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_LINE_REF = re.compile(r"([\w./-]+\.py):(\d+)")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def read_docs(root: Path) -> dict[str, str]:
    """The living docs under ``root`` that exist, by repo-relative path."""
    return {doc: (root / doc).read_text(encoding="utf-8")
            for doc in LIVING_DOCS if (root / doc).is_file()}


def _violation(doc: str, text: str, span: re.Match, ref: re.Match,
               problem: str) -> Violation:
    """A finding at the line of ``ref``, found inside backticked ``span``."""
    line = text.count("\n", 0, span.start(1) + ref.start()) + 1
    return Violation(path=doc, line=line, rule=RULE,
                     message=f"`{ref.group(0)}` {problem}",
                     qualname=ref.group(0), snippet=ref.group(0))


class DocReferenceRule:
    """Check every backticked reference of ``docs`` (path → text).

    ``line_counts`` maps each repo-relative ``.py`` path to its length in
    lines; ``project`` is the model of ``src/repro`` dotted names resolve
    in.
    """

    rule = RULE

    def __init__(self, project: Project, docs: dict[str, str],
                 line_counts: dict[str, int]) -> None:
        self.project = project
        self.docs = docs
        self.line_counts = line_counts

    def run(self) -> list[Violation]:
        found: dict[tuple[str, str], Violation] = {}
        for doc, text in sorted(self.docs.items()):
            # Fenced blocks go, their newlines stay: line numbers hold.
            text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
            for span in _SPAN.finditer(text):
                for ref in _LINE_REF.finditer(span.group(1)):
                    problem = self._line_problem(ref.group(1),
                                                 int(ref.group(2)))
                    if problem:
                        found.setdefault((doc, ref.group(0)), _violation(
                            doc, text, span, ref, problem))
                for ref in _DOTTED.finditer(span.group(1)):
                    if not self._resolves(ref.group(0)):
                        found.setdefault((doc, ref.group(0)), _violation(
                            doc, text, span, ref,
                            "names nothing in src/repro"))
        return list(found.values())

    def _line_problem(self, path: str, line: int) -> Optional[str]:
        for candidate in (path, f"src/repro/{path}"):
            count = self.line_counts.get(candidate)
            if count is not None:
                return None if 1 <= line <= count else \
                    f"is past the end of {candidate} ({count} lines)"
        return "names no file"

    def _resolves(self, dotted: str) -> bool:
        if self.project.lookup(dotted)[1]:
            return True
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            owner, exact = self.project.lookup(".".join(parts[:cut]))
            if exact:
                return self._binds(owner, parts[cut])
        return False

    def _binds(self, owner: str, name: str) -> bool:
        """Whether module or class ``owner`` binds ``name`` in its body."""
        project = self.project
        if owner in project.classes:
            body = project.classes[owner].node.body
        elif owner in project.modules:
            body = project.modules[owner].tree.body
        else:
            return False
        for stmt in body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            if any(isinstance(target, ast.Name) and target.id == name
                   for target in targets):
                return True
        return False
