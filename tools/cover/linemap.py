"""Run roots under the line tracer, and turn what they ran into a map.

Everything here takes the source directory and the commands as
arguments, so a test can map a small fixture package the same way
``python -m tools.cover`` maps ``src/repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from types import CodeType
from typing import Iterable, Iterator, NamedTuple

HOOK = Path(__file__).resolve().parent / "hook"
STATES = ("root", "tests-only", "never")


class Command(NamedTuple):
    """One traced run: a name (its raw directory) and its argument list."""

    name: str
    argv: list[str]


def _code_objects(code: CodeType) -> Iterator[tuple[str, CodeType]]:
    """``(qualified name, code)`` for ``code`` and every code object
    nested in it; the module's own name is empty."""
    todo = [("", code)]
    while todo:
        name, current = todo.pop()
        yield name, current
        for const in current.co_consts:
            if isinstance(const, CodeType):
                todo.append((f"{name}.{const.co_name}".lstrip("."), const))


def _lines(code: CodeType) -> set[int]:
    return {line for _start, _end, line in code.co_lines()
            if line is not None and line > 0}


def executable_lines(path: Path) -> tuple[set[int], dict[str, set[int]]]:
    """The lines of a module some compiled code object has, and per
    function (by qualified name, ``<locals>`` left out) the lines of its
    body."""
    module = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    bodies: dict[str, set[int]] = {}
    for name, code in _code_objects(module):
        own = _lines(code)
        lines |= own
        if name and code.co_name not in ("<lambda>", "<genexpr>",
                                         "<listcomp>", "<dictcomp>",
                                         "<setcomp>"):
            body = own - {code.co_firstlineno}
            bodies.setdefault(name, set()).update(body)
    return lines, bodies


def run_roots(commands: Iterable[Command], raw: Path, source: Path,
              cwd: Path, path: Iterable[Path]) -> list[dict]:
    """Run each command traced, one at a time, from ``cwd`` with ``path``
    after the hook on ``PYTHONPATH``; its lines land in ``raw/<name>/``,
    its output in ``raw/<name>.log``.  Returns ``{name, exit}`` per
    command, in order."""
    ran = []
    for command in commands:
        target = raw / command.name
        target.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, TOOLS_COVER_RAW=str(target),
                   TOOLS_COVER_SOURCE=str(source), PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HOOK), *map(str, path)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = time.perf_counter()
        with open(raw / f"{command.name}.log", "w") as log:
            code = subprocess.run(command.argv, cwd=cwd, env=env, stdout=log,
                                  stderr=subprocess.STDOUT).returncode
        print(f"{command.name:<40} exit {code}  "
              f"{time.perf_counter() - started:7.1f} s", flush=True)
        ran.append({"name": command.name, "exit": code})
    return ran


def _hits(directory: Path, source: Path) -> dict[str, set[int]]:
    """Lines run, per module path relative to ``source``'s parent, over
    every process that wrote into ``directory``."""
    found: dict[str, set[int]] = {}
    for dump in directory.glob("*.json"):
        for path, lines in json.loads(dump.read_text()).items():
            key = Path(path).resolve().relative_to(source.parent).as_posix()
            found.setdefault(key, set()).update(lines)
    return found


def _ranges(lines: list[int], state: dict[int, str]) -> dict[str, list]:
    """Runs of consecutive executable lines in one state, as
    ``[first, last]`` pairs per state."""
    ranges: dict[str, list] = {name: [] for name in STATES}
    previous = None
    for line in lines:
        current = ranges[state[line]]
        if previous is not None and state[previous] == state[line]:
            current[-1][1] = line
        else:
            current.append([line, line])
        previous = line
    return ranges


def build_map(source: Path, raw: Path, roots: list[str], tests: str,
              ran: list[dict]) -> dict:
    """The map: per module of ``source``, its executable lines' counts and
    ranges by state, and the functions whose body no root runs."""
    root_hits: dict[str, set[int]] = {}
    for name in roots:
        for module, lines in _hits(raw / name, source).items():
            root_hits.setdefault(module, set()).update(lines)
    test_hits = _hits(raw / tests, source)
    modules, totals = {}, dict.fromkeys(("executable", *STATES), 0)
    for path in sorted(source.rglob("*.py")):
        key = path.relative_to(source.parent).as_posix()
        lines, bodies = executable_lines(path)
        by_root, by_tests = root_hits.get(key, set()), test_hits.get(key, set())
        state = {line: "root" if line in by_root else
                 "tests-only" if line in by_tests else "never"
                 for line in lines}
        counts = {"executable": len(lines),
                  **{name: sum(1 for s in state.values() if s == name)
                     for name in STATES}}
        for name, count in counts.items():
            totals[name] += count
        unrun = {name: "tests-only" if body & by_tests else "never"
                 for name, body in sorted(bodies.items())
                 if body and not body & by_root}
        modules[key] = {**counts, "ranges": _ranges(sorted(lines), state),
                        "functions_no_root_runs": unrun}
    return {"runs": ran, "summary": totals, "modules": modules}


def summary_text(linemap: dict) -> str:
    """One row per module with a line no root runs, then the totals."""
    rows = [f"{'module':<44}{'lines':>7}{'root':>7}{'tests-only':>12}"
            f"{'never':>7}"]
    for key, module in linemap["modules"].items():
        if module["tests-only"] or module["never"]:
            rows.append(f"{key:<44}{module['executable']:>7}"
                        f"{module['root']:>7}{module['tests-only']:>12}"
                        f"{module['never']:>7}")
    totals = linemap["summary"]
    rows.append(f"{'total':<44}{totals['executable']:>7}{totals['root']:>7}"
                f"{totals['tests-only']:>12}{totals['never']:>7}")
    return "\n".join(rows) + "\n"
