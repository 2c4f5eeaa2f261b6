"""Finding fingerprints, output formats, and the baseline workflow.

A fingerprint identifies a finding across line drift: it hashes the rule
id, the repo-relative path, the enclosing qualified name, and the
whitespace-normalized source snippet — never the line number.  Moving a
function within a file (or editing unrelated lines above it) keeps the
fingerprint stable; changing the offending line itself produces a new
finding, which is exactly when a human should look again.

The baseline file is a checked-in JSON object mapping fingerprints to a
human-readable locator and the one-line reason the finding is accepted.
``--baseline`` makes the run fail on findings *not* in the baseline and
on baseline entries no finding matches any more (a fixed finding's
waiver must go with it); ``--update-baseline`` rewrites the file from the current
findings (sorted, so diffs review cleanly), keeping the reasons of the
entries that survive.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = [
    "Violation", "allowed", "line_text", "fingerprint", "normalize_snippet",
    "render_json", "render_sarif", "render_text", "load_baseline",
    "write_baseline", "split_by_baseline", "stale_entries", "TOOL_NAME",
]

TOOL_NAME = "bcwan-analysis"
_WS = re.compile(r"\s+")


@dataclass(frozen=True)
class Violation:
    """One finding of any rule at a specific source location.

    ``qualname`` (the enclosing or offending definition, dotted),
    ``snippet`` (the stripped source line) and ``trace`` (the
    source→sink call chain of a taint finding) feed the stable
    fingerprints below; line numbers deliberately do not.
    """

    path: str
    line: int
    rule: str
    message: str
    qualname: str = ""
    snippet: str = ""
    trace: tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_text(source_lines: Sequence[str], line: int) -> str:
    """The stripped text of 1-based ``line`` (a finding's snippet)."""
    return source_lines[line - 1].strip() \
        if 0 < line <= len(source_lines) else ""


def allowed(source_lines: Sequence[str], line: int, rule: str) -> bool:
    """Whether ``# lint: allow(rule)`` sits on ``line`` — the one pragma."""
    return f"lint: allow({rule})" in line_text(source_lines, line)


def normalize_snippet(snippet: str) -> str:
    """Collapse all whitespace runs so reformatting keeps fingerprints."""
    return _WS.sub(" ", snippet.strip())


def fingerprint(violation: Violation) -> str:
    """16-hex-char stable id: rule + path + qualname + normalized snippet."""
    basis = "\x00".join((
        violation.rule,
        violation.path,
        violation.qualname,
        normalize_snippet(violation.snippet),
    ))
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def render_text(violations: Sequence[Violation]) -> str:
    lines = []
    for violation in violations:
        lines.append(f"{violation}  [{fingerprint(violation)}]")
        for hop in violation.trace:
            lines.append(f"    via {hop}")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], checked: int,
                baselined: int) -> str:
    findings = [{
        "rule": violation.rule,
        "path": violation.path,
        "line": violation.line,
        "qualname": violation.qualname,
        "message": violation.message,
        "snippet": violation.snippet,
        "trace": list(violation.trace),
        "fingerprint": fingerprint(violation),
    } for violation in violations]
    return json.dumps({
        "version": 1,
        "tool": TOOL_NAME,
        "files_checked": checked,
        "baselined": baselined,
        "new": len(findings),
        "findings": findings,
    }, indent=2, sort_keys=True) + "\n"


def render_sarif(violations: Sequence[Violation], checked: int,
                 baselined: int) -> str:
    """Minimal SARIF 2.1.0 — one run, one result per finding."""
    rule_ids = sorted({violation.rule for violation in violations})
    results = []
    for violation in violations:
        message = violation.message
        if violation.trace:
            message += "\npath: " + " -> ".join(violation.trace)
        results.append({
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": violation.path},
                    "region": {"startLine": max(violation.line, 1)},
                },
                "logicalLocations": [
                    {"fullyQualifiedName": violation.qualname}
                ] if violation.qualname else [],
            }],
            "partialFingerprints": {"primary": fingerprint(violation)},
        })
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": TOOL_NAME,
                "informationUri": "https://example.invalid/bcwan",
                "rules": [{"id": rule_id} for rule_id in rule_ids],
            }},
            "properties": {
                "filesChecked": checked,
                "baselinedFindings": baselined,
            },
            "results": results,
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True) + "\n"


def load_baseline(path: Path) -> dict[str, dict[str, str]]:
    """fingerprint -> {finding, reason}; a missing file is an empty baseline."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return dict(data.get("fingerprints", {}))


def write_baseline(path: Path, violations: Sequence[Violation]) -> None:
    """Rewrite ``path`` from ``violations``; surviving entries keep their reason."""
    reasons = load_baseline(path)
    fingerprints = {
        fingerprint(violation): {
            "finding": f"{violation.rule} @ {violation.path} :: "
                       f"{violation.qualname or '<module>'} :: "
                       f"{normalize_snippet(violation.snippet)}",
            "reason": reasons.get(fingerprint(violation), {}).get("reason", ""),
        }
        for violation in violations
    }
    payload = {
        "version": 1,
        "tool": TOOL_NAME,
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def split_by_baseline(violations: Sequence[Violation],
                      baseline: dict[str, dict[str, str]]
                      ) -> tuple[list[Violation], list[Violation]]:
    """(new, baselined) partition of ``violations``."""
    new: list[Violation] = []
    known: list[Violation] = []
    for violation in violations:
        if fingerprint(violation) in baseline:
            known.append(violation)
        else:
            new.append(violation)
    return new, known


def stale_entries(violations: Sequence[Violation],
                  baseline: dict[str, dict[str, str]]) -> list[str]:
    """The baseline fingerprints no finding in ``violations`` matches."""
    current = {fingerprint(violation) for violation in violations}
    return sorted(set(baseline) - current)
