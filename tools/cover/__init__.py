"""Line map of ``src/repro``: what the program's roots run, what only
the tier-1 tests run, and what nothing runs.

``python -m tools.cover --out DIR`` runs every root under a stdlib
``sys.settrace`` line tracer (:mod:`tools.cover.hook`, prepended to each
root's ``PYTHONPATH`` so the processes a root starts are traced too),
then the tier-1 suite the same way, and sorts every executable line —
a line some compiled code object of the module has (``co_lines()``) —
into one of three states:

``root``
    run by at least one root;
``tests-only``
    run by the tier-1 suite and by no root;
``never``
    run by neither.

The roots are the ones the analyzer's ``unreachable`` rule counts
(:mod:`tools.cover.roots`).  The map is an artifact, not a gate.
"""

from tools.cover.linemap import STATES, build_map, executable_lines, \
    run_roots

__all__ = ["STATES", "build_map", "executable_lines", "run_roots"]
