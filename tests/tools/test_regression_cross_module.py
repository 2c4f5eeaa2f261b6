"""Acceptance regression: a taint path the per-file lint cannot see.

``repro.core.clocksrc`` reads the wall clock (legal there — it is not a
consensus package), and ``repro.blockchain.hashsink`` hashes the value
it returns.  Neither file trips any per-file checker: the source module
is out of the wall-clock rule's package scope, and the sink module never
names a banned call.  Only the whole-program pass, following the
cross-module call edge, reports the path.
"""

from pathlib import Path

from tests.tools.conftest import FIXDIR, MANIFEST, load_fixture_project
from tools.analysis import analyze_project
from tools.analysis.perfile import ALL_CHECKERS, check_source

PAIR = ("clocksrc.py", "hashsink.py")


def test_per_file_lint_is_silent_on_both_modules():
    for name in PAIR:
        _modname, path = MANIFEST[name]
        source = (FIXDIR / name).read_text()
        assert check_source(source, path, ALL_CHECKERS) == [], \
            f"per-file lint unexpectedly fires on {name}"


def test_whole_program_pass_reports_the_cross_module_path():
    violations = analyze_project(load_fixture_project(*PAIR))
    matches = [violation for violation in violations
               if violation.rule == "taint-wall-clock"
               and violation.qualname.endswith("digest_header")]
    assert matches, "whole-program pass must report the cross-module path"
    violation = matches[0]
    joined = " ".join(violation.trace)
    assert "src/repro/core/clocksrc.py" in joined, \
        "trace must reach back into the source module"
    assert violation.path == "src/repro/blockchain/hashsink.py"


def test_fixture_corpus_is_excluded_from_the_default_walk():
    from tools.analysis.__main__ import EXCLUDED_FRAGMENTS, iter_python_files

    root = Path(__file__).resolve().parents[2]
    files = iter_python_files(["tests"], root)
    assert any("tests/tools/fixtures/" in fragment
               for fragment in EXCLUDED_FRAGMENTS)
    assert not any("tests/tools/fixtures" in path.as_posix()
                   for path in files)
