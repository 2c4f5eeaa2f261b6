"""Config-sweep harness: grid generation plus a deterministic local runner.

The shape follows the related LPWAN repo's ``gen_configs.py`` /
``run_sweep_local.py`` pair: a JSON grid names axes (fleet size x SF x
consensus x chaos plan), :mod:`tools.sweep.grid` expands it
into pinned-order cells with per-cell derived seeds, and
:mod:`tools.sweep.runner` fans the cells into per-config JSON result rows
(one file per cell plus the merged ``results.json``).  Two runs of the same
grid produce byte-identical results.
"""

from tools.sweep.grid import (SweepCell, derive_cell_seed, expand_grid,
                              format_cell_id, load_grid)
from tools.sweep.runner import (CHAOS_PLANS, cell_filename, dumps_result,
                                run_cell, run_sweep)

__all__ = [
    "SweepCell",
    "derive_cell_seed",
    "expand_grid",
    "format_cell_id",
    "load_grid",
    "CHAOS_PLANS",
    "cell_filename",
    "dumps_result",
    "run_cell",
    "run_sweep",
]
