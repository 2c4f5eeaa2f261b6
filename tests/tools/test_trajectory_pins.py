"""``python -m tools.trajectory pins``: the comparison, without the runs.

The real check starts one benchmark process per workload and seed (CI's
``bench`` job runs it); here the runs are stubbed so the test covers what
the tool decides: which fields are pinned, and when it fails.
"""

from __future__ import annotations

import json

import pytest

from tools.trajectory import pins


def _detail(workload: str, seed: int) -> dict:
    return {"digest": f"{workload}-{seed}", "attempted": 10, "failed": 1,
            "host": {"python": "3.x", "numpy": "2.x"}}


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    monkeypatch.setattr(pins, "PIN_FILE", tmp_path / "pins.json")
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha", "beta"])
    monkeypatch.setattr(pins, "_smoke_run", _detail)
    return tmp_path / "pins.json"


def test_update_then_check_passes(stubbed, capsys):
    pins.update_pins()
    written = json.loads(stubbed.read_text())
    assert written["made_with"] == {"python": "3.x", "numpy": "2.x"}
    assert len(written["runs"]) == 2 * len(pins.SEEDS)
    assert pins.check_pins() == 0
    assert "ok: 4 runs match the pins" in capsys.readouterr().out


@pytest.mark.parametrize("field,value", [("digest", "moved"),
                                         ("attempted", 11), ("failed", 0)])
def test_any_pinned_field_that_moves_fails(stubbed, monkeypatch, capsys,
                                           field, value):
    pins.update_pins()

    def moved(workload, seed):
        detail = _detail(workload, seed)
        if (workload, seed) == ("beta", 23):
            detail[field] = value
        return detail

    monkeypatch.setattr(pins, "_smoke_run", moved)
    assert pins.check_pins() == 1
    assert f"MISMATCH beta seed 23 {field}" in capsys.readouterr().out


def test_a_failed_run_or_a_changed_workload_set_fails(stubbed, monkeypatch):
    pins.update_pins()
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha"])
    assert pins.check_pins() == 1      # beta's pins are stale
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha", "beta", "gamma"])
    assert pins.check_pins() == 1      # gamma is unpinned

    def failing(workload, seed):
        raise RuntimeError(f"{workload} seed {seed}: the run failed")

    monkeypatch.setattr(pins, "_smoke_run", failing)
    assert pins.check_pins() == 1
