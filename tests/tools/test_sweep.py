"""The sweep harness contract: pinned expansion, resume, byte-identity.

Grid expansion order, cell ids, and per-cell seed derivation are frozen
here — renumbering cells would silently corrupt resume-from-partial
sweeps, and seed drift would silently change every result row.
"""

from __future__ import annotations

import json

import pytest

from tools.sweep.grid import (SweepCell, derive_cell_seed, expand_grid,
                              format_cell_id, load_grid)
from tools.sweep.runner import (CHAOS_PLANS, cell_filename, dumps_result,
                                run_cell, run_sweep)

TINY = {
    "num_gateways": 2,
    "sensors_per_gateway": 2,
    "exchange_interval": 15.0,
}


# -- expansion ---------------------------------------------------------------

def test_expansion_is_the_pinned_cartesian_product():
    cells = expand_grid({"a": [1, 2], "b": ["x", "y"]},
                        base={"c": 9}, base_seed=5)
    assert [cell.cell_id for cell in cells] == [
        "a=1,b=x", "a=1,b=y", "a=2,b=x", "a=2,b=y"]
    assert [cell.index for cell in cells] == [0, 1, 2, 3]
    # Base merges under the axis overrides; axes win on conflict.
    assert cells[0].as_kwargs() == {"c": 9, "a": 1, "b": "x"}
    override = expand_grid({"c": [1]}, base={"c": 9})[0]
    assert override.as_kwargs() == {"c": 1}


def test_cell_seeds_are_derived_and_distinct():
    cells = expand_grid({"a": [1, 2, 3]}, base_seed=7)
    seeds = [cell.seed for cell in cells]
    assert len(set(seeds)) == 3
    assert seeds[0] == derive_cell_seed(7, "a=1")
    # Different base seeds decorrelate the whole grid.
    assert expand_grid({"a": [1]}, base_seed=8)[0].seed != seeds[0]


def test_seed_derivation_algorithm_is_frozen():
    # sha256("0:a=1")[:8] big-endian: a literal so the derivation can
    # never drift without this test noticing.
    assert derive_cell_seed(0, "a=1") == 0x75B96E293A61C70F


def test_grid_rejects_pinned_seed_and_empty_axes():
    with pytest.raises(ValueError, match="seed"):
        expand_grid({"a": [1]}, base={"seed": 3})
    with pytest.raises(ValueError, match="seed"):
        expand_grid({"seed": [1, 2]})
    with pytest.raises(ValueError, match="empty"):
        expand_grid({"a": []})
    with pytest.raises(ValueError, match="duplicate"):
        expand_grid({"a": [1, 1]})


def test_format_cell_id_and_filename_are_stable():
    assert format_cell_id({"sf": 7, "chaos": "none"}) == "sf=7,chaos=none"
    cell = SweepCell(index=3, cell_id="sf=7", params=(), seed=0)
    name = cell_filename(cell)
    assert name.startswith("cell-0003-") and name.endswith(".json")
    assert cell_filename(cell) == name


def test_load_grid_round_trip(tmp_path):
    spec = {"base_seed": 4, "base": {"num_gateways": 2},
            "axes": {"spreading_factor": [7, 8]}}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    cells = load_grid(path)
    assert [cell.cell_id for cell in cells] == ["spreading_factor=7",
                                                "spreading_factor=8"]
    assert cells[0].as_kwargs()["num_gateways"] == 2
    path.write_text(json.dumps({"axes": {}, "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_grid(path)


# -- resume ------------------------------------------------------------------

def _stub_runner(calls):
    def runner(cell, num_exchanges, max_duration):
        calls.append(cell.cell_id)
        return {"cell": cell.cell_id, "index": cell.index,
                "launched": 1, "completed": 1}
    return runner


def test_resume_skips_completed_cells(tmp_path):
    cells = expand_grid({"a": [1, 2, 3]})
    calls: list[str] = []
    run_sweep(cells, tmp_path, runner=_stub_runner(calls))
    assert calls == ["a=1", "a=2", "a=3"]

    calls.clear()
    rows = run_sweep(cells, tmp_path, runner=_stub_runner(calls))
    assert calls == []  # everything cached
    assert [row["cell"] for row in rows] == ["a=1", "a=2", "a=3"]

    (tmp_path / cell_filename(cells[1])).unlink()
    calls.clear()
    run_sweep(cells, tmp_path, runner=_stub_runner(calls))
    assert calls == ["a=2"]  # only the missing cell re-ran

    calls.clear()
    run_sweep(cells, tmp_path, resume=False, runner=_stub_runner(calls))
    assert calls == ["a=1", "a=2", "a=3"]


def test_resumed_merge_equals_uninterrupted_merge(tmp_path):
    cells = expand_grid({"a": [1, 2]})
    calls: list[str] = []
    straight = tmp_path / "straight"
    resumed = tmp_path / "resumed"
    run_sweep(cells, straight, runner=_stub_runner(calls))
    run_sweep(cells[:1], resumed, runner=_stub_runner(calls))  # interrupted
    run_sweep(cells, resumed, runner=_stub_runner(calls))      # picked up
    assert (straight / "results.json").read_bytes() == \
        (resumed / "results.json").read_bytes()


# -- real runs ---------------------------------------------------------------

def test_two_real_sweeps_are_byte_identical(tmp_path):
    cells = expand_grid({"spreading_factor": [7, 9]}, base=TINY, base_seed=11)
    first = run_sweep(cells, tmp_path / "one", num_exchanges=3)
    run_sweep(cells, tmp_path / "two", num_exchanges=3)
    assert (tmp_path / "one" / "results.json").read_bytes() == \
        (tmp_path / "two" / "results.json").read_bytes()
    assert all(row["launched"] == 3 for row in first)
    # Rows must be wall-clock free and NaN free by construction.
    for row in first:
        json.dumps(row, allow_nan=False)
        assert "wall" not in dumps_result(row)


def test_zero_exchange_cell_produces_well_formed_row():
    cell = expand_grid({"num_exchanges": [0]}, base=TINY, base_seed=2)[0]
    row = run_cell(cell)
    assert row["launched"] == 0
    assert row["completed"] == 0
    assert row["completion_rate"] == 0.0
    assert row["latency"]["count"] == 0
    encoded = json.dumps(row, allow_nan=False)  # raises on any NaN leak
    assert "NaN" not in encoded


def test_chaos_axis_builds_and_runs(tmp_path):
    assert set(CHAOS_PLANS) == {"none", "wan-loss", "partition",
                                "gateway-crash"}
    cells = expand_grid({"chaos": ["none", "wan-loss"]}, base=TINY,
                        base_seed=13)
    rows = run_sweep(cells, tmp_path, num_exchanges=2)
    assert [row["params"]["chaos"] for row in rows] == ["none", "wan-loss"]
    for row in rows:
        assert row["launched"] == 2


def test_config_field_that_does_not_exist_fails_loudly():
    # Cell params go to NetworkConfig(**params) unfiltered, so a grid file
    # written before a knob was retired (the channel-kernel switch went
    # this way) stops the sweep instead of running cells that ignore it.
    cell = expand_grid({"retired_knob": ["vector"]}, base=TINY)[0]
    with pytest.raises(TypeError, match="retired_knob"):
        run_cell(cell)


def test_unknown_chaos_plan_is_rejected():
    cell = expand_grid({"chaos": ["does-not-exist"]}, base=TINY)[0]
    with pytest.raises(ValueError, match="unknown chaos plan"):
        run_cell(cell)
