"""``python -m tools.cover``: the line map, on a fixture package whose
root-run, tests-only and never lines are known, and the roots it reads
from the files that declare them."""

from __future__ import annotations

import json
import sys
import textwrap

from tools.cover.linemap import Command, build_map, run_roots
from tools.cover.roots import ROOT, TESTS, roots

MODULE = textwrap.dedent('''\
    def by_root():
        return 1


    def by_tests():
        return 2


    def by_child():
        return 3


    def never():
        return 4
''')
ROOT_SCRIPT = textwrap.dedent('''\
    import subprocess
    import sys

    from pkg.mod import by_root

    by_root()
    subprocess.run([sys.executable, "-c",
                    "from pkg.mod import by_child; by_child()"], check=True)
''')


def _map(tmp_path, name):
    package = tmp_path / "pkg"
    raw = tmp_path / name
    commands = [Command("root", [sys.executable, str(tmp_path / "root.py")]),
                Command("tests", [sys.executable, "-c",
                                  "from pkg.mod import by_tests; by_tests()"])]
    ran = run_roots(commands, raw, package, tmp_path, [tmp_path])
    return build_map(package, raw, ["root"], "tests", ran)


def test_a_fixture_package_is_mapped_line_by_line(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "root.py").write_text(ROOT_SCRIPT)
    linemap = _map(tmp_path, "raw")
    assert linemap["runs"] == [{"name": "root", "exit": 0},
                               {"name": "tests", "exit": 0}]
    module = linemap["modules"]["pkg/mod.py"]
    # every def line runs at import, the bodies at lines 2, 6, 10, 14
    # as named; a range joins executable lines in one state, over the
    # blank lines between them
    assert module["ranges"] == {"root": [[1, 5], [9, 13]],
                                "tests-only": [[6, 6]],
                                "never": [[14, 14]]}
    assert [module[state] for state in ("executable", "root", "tests-only",
                                        "never")] == [8, 6, 1, 1]
    # by_root's body (line 2) ran in the root; by_child's (line 10) only
    # in the process the root started
    assert module["functions_no_root_runs"] == {"by_tests": "tests-only",
                                                "never": "never"}
    assert linemap["modules"]["pkg/__init__.py"]["executable"] == 0
    again = _map(tmp_path, "raw-again")
    assert json.dumps(again, sort_keys=True) == json.dumps(linemap,
                                                           sort_keys=True)


def test_the_roots_are_read_from_the_files_that_declare_them(tmp_path):
    names = [command.name for command in roots(tmp_path)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names[0] == "pins"
    for workload in declared["workloads"]:
        for seed in (11, 23):
            assert f"workload-{workload['name']}-{seed}" in names
    assert "benchmarks" in names
    examples = sorted(path.stem for path in (ROOT / "examples").glob("*.py"))
    assert [name[len("example-"):] for name in names
            if name.startswith("example-")] == examples
    assert "script-bcwan-explorer" in names
    assert {name for name in names if name.startswith(
        "script-bcwan-experiment-")} == {
        f"script-bcwan-experiment-{command}" for command in
        ("fig5", "fig6", "capacity", "doublespend", "baselines")}
    assert TESTS.name not in names
