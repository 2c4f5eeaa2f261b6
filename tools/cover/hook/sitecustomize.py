"""Line tracer for ``src/repro``, loaded at start-up by every Python
process whose ``PYTHONPATH`` begins with this directory.

``python -m tools.cover`` puts it there for each root it runs, so the
processes a root starts are traced too.  It traces the files under the
directory ``TOOLS_COVER_SOURCE`` names; with ``TOOLS_COVER_RAW`` unset it
does nothing.  At exit the process writes the lines it ran, per file, to
a new JSON file in the ``TOOLS_COVER_RAW`` directory.

A code object is traced line by line until every line it has has run,
then only at its calls, which is what keeps a traced full-size workload
within a few times its untraced cost.
"""

import atexit
import json
import os
import sys
import tempfile
import threading

def _install(raw, source):
    hits = {}       # file -> lines run
    tracers = {}    # code object -> its line tracer, None once nothing is left

    def tracer_for(code):
        path = os.path.abspath(code.co_filename)
        if not path.startswith(source):
            return None
        ran = hits.setdefault(path, set())
        left = {line for _start, _end, line in code.co_lines()
                if line is not None} - ran
        if not left:
            return None

        def line(frame, event, arg):
            number = frame.f_lineno
            if number in left:
                left.discard(number)
                ran.add(number)
                if not left:
                    tracers[code] = None
            return line
        return line

    def call(frame, event, arg):
        code = frame.f_code
        try:
            tracer = tracers[code]
        except KeyError:
            tracer = tracers[code] = tracer_for(code)
        if tracer is not None:
            tracer(frame, event, arg)
        return tracer

    def dump():
        sys.settrace(None)
        found = {path: sorted(lines) for path, lines in hits.items() if lines}
        handle, _name = tempfile.mkstemp(suffix=".json", dir=raw)
        with os.fdopen(handle, "w") as out:
            json.dump(found, out)

    atexit.register(dump)
    threading.settrace(call)
    sys.settrace(call)


if os.environ.get("TOOLS_COVER_RAW"):
    _install(os.environ["TOOLS_COVER_RAW"],
             os.path.join(os.environ["TOOLS_COVER_SOURCE"], ""))
