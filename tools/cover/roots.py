"""The roots ``python -m tools.cover`` runs, read from the files that
declare them: the workloads from ``BENCHMARK.json`` (as ``pins`` reads
them), the console scripts from ``[project.scripts]``, every file under
``examples/``, and ``benchmarks/``.  They are the roots of the
analyzer's ``unreachable`` rule.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from pathlib import Path

from tools.cover.linemap import Command
from tools.trajectory.pins import SEEDS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
# Seeded tests draw the same examples on every run, so two maps of one
# tree are byte-identical.
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
TESTS = Command("tier-1", PYTEST + ["tests"])
# A console script's size options, at the small values a traced run can
# afford; every other option keeps its default, every flag is switched on.
SMALL = {"--exchanges": "6", "--gateways": "2", "--sensors": "2"}
_SCRIPT = re.compile(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"\s*$')


def _workloads() -> list[Command]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [Command(f"workload-{workload['name']}-{seed}",
                    [sys.executable, "-m", "bench", "--workload",
                     workload["name"], "--seed", str(seed), "--seconds",
                     str(declared["run_seconds"])])
            for workload in declared["workloads"] for seed in SEEDS]


def _scripts() -> list[tuple[str, str, str]]:
    """``(name, module, function)`` per ``[project.scripts]`` entry."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.partition("[project.scripts]")[2].partition("\n[")[0]
    return [match.groups() for match in map(_SCRIPT.match,
                                            section.splitlines()) if match]


def _script_arguments(module: str, out: Path) -> list[list[str]]:
    """One argument list per subcommand of a script whose module has a
    ``build_parser``; a single empty one otherwise."""
    sys.path.insert(0, str(SRC))
    try:
        build = getattr(importlib.import_module(module), "build_parser", None)
    finally:
        sys.path.remove(str(SRC))
    if build is None:
        return [[]]
    subcommands = next(action for action in build()._actions
                       if isinstance(action, argparse._SubParsersAction))
    runs = []
    for command, parser in subcommands.choices.items():
        arguments = [command]
        for action in parser._actions:
            option = next(iter(action.option_strings), None)
            if option in SMALL:
                arguments += [option, SMALL[option]]
            elif isinstance(action, argparse._StoreTrueAction) \
                    and option != "-h":
                arguments.append(option)
            elif action.metavar == "PATH":
                arguments += [option, str(out / f"{command}{option}.out")]
        runs.append(arguments)
    return runs


def _console_scripts(out: Path) -> list[Command]:
    commands = []
    for name, module, function in _scripts():
        starter = (f"import sys; from {module} import {function}; "
                   f"sys.argv[0] = {name!r}; sys.exit({function}())")
        for arguments in _script_arguments(module, out):
            commands.append(Command("-".join(["script", name, *arguments[:1]]),
                                    [sys.executable, "-c", starter,
                                     *arguments]))
    return commands


def roots(out: Path) -> list[Command]:
    """Every root, in a fixed order; ``out`` takes files a root writes."""
    return [Command("pins", [sys.executable, "-m", "tools.trajectory",
                             "pins"]),
            *_workloads(),
            Command("benchmarks", PYTEST + ["benchmarks",
                                            "--benchmark-disable"]),
            *[Command(f"example-{path.stem}", [sys.executable, str(path)])
              for path in sorted((ROOT / "examples").glob("*.py"))],
            *_console_scripts(out)]
