"""The repo benchmark: seven workloads, measured end to end and layer by layer.

``python -m bench`` is the one command; ``bench/README.md`` is the manual.
Everything here drives ``src/repro`` from outside, through public entry
points and with default settings only.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BENCHMARK.json's run_seconds: the timed phases of every workload are
# sized to take about this long, and sizes scale linearly with --seconds.
NOMINAL_SECONDS = 10

# The benchmark measures the checkout it sits in, never an installed copy.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
