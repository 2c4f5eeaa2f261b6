"""``python -m tools.trajectory pins``: the comparison, without the runs.

The real check starts one benchmark process per workload and seed (CI's
``bench`` job runs it); here the runs are stubbed so the test covers what
the tool decides: which fields and counts are pinned, and when it fails.
"""

from __future__ import annotations

import json

import pytest

from tools.trajectory import pins


COUNTED = ["script.verify.calls", "blockchain.script_cache.hit_ratio"]


def _detail(workload: str, seed: int, trace: int) -> dict:
    detail = {"digest": f"{workload}-{seed}", "attempted": 10, "failed": 1,
              "host": {"python": "3.x", "numpy": "2.x"}}
    if trace:
        detail["layers"] = {"script.verify.calls": 28,
                            "blockchain.script_cache.hit_ratio": 0.6,
                            "sim.events": 900,
                            "script.verify.self_s": 0.1 * seed}
    return detail


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    monkeypatch.setattr(pins, "PIN_FILE", tmp_path / "pins.json")
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha", "beta"])
    monkeypatch.setattr(pins, "_counted", lambda: COUNTED)
    monkeypatch.setattr(pins, "_smoke_run", _detail)
    return tmp_path / "pins.json"


def test_update_then_check_passes(stubbed, capsys):
    pins.update_pins()
    written = json.loads(stubbed.read_text())
    assert written["made_with"] == {"python": "3.x", "numpy": "2.x"}
    assert len(written["runs"]) == 2 * len(pins.SEEDS)
    assert written["runs"][0]["counts"] == {
        "script.verify.calls": 28, "blockchain.script_cache.hit_ratio": 0.6}
    assert pins.check_pins() == 0
    assert "ok: 4 runs match the pins" in capsys.readouterr().out


def test_the_counted_metrics_are_the_declared_counts_and_two_ratios():
    counted = pins._counted()
    assert "crypto.ecdsa_verify.calls" in counted
    assert "blockchain.reorg.blocks_disconnected" in counted
    assert counted[-2:] == list(pins.COUNT_RATIOS)
    assert not any(name.endswith("_s") or name.startswith("bench.")
                   for name in counted)


@pytest.mark.parametrize("field,value", [("digest", "moved"),
                                         ("attempted", 11), ("failed", 0)])
def test_any_pinned_field_that_moves_fails(stubbed, monkeypatch, capsys,
                                           field, value):
    pins.update_pins()

    def moved(workload, seed, trace):
        detail = _detail(workload, seed, trace)
        if (workload, seed) == ("beta", 23):
            detail[field] = value
        return detail

    monkeypatch.setattr(pins, "_smoke_run", moved)
    assert pins.check_pins() == 1
    assert f"MISMATCH beta seed 23 {field}" in capsys.readouterr().out


@pytest.mark.parametrize("name,value", [("script.verify.calls", 29),
                                        ("blockchain.script_cache.hit_ratio",
                                         0.5)])
def test_one_changed_count_fails_and_names_both_values(
        stubbed, monkeypatch, capsys, name, value):
    pins.update_pins()
    pinned = _detail("alpha", 11, trace=1)["layers"][name]

    def more_work(workload, seed, trace):
        detail = _detail(workload, seed, trace)
        if trace and (workload, seed) == ("alpha", 11):
            detail["layers"][name] = value
        return detail

    monkeypatch.setattr(pins, "_smoke_run", more_work)
    assert pins.check_pins() == 1
    out = capsys.readouterr().out
    assert f"MISMATCH alpha seed 11 {name}: pinned {pinned}, now {value}" in out
    assert "1 of 4 runs differ" in out


def test_a_time_is_never_pinned(stubbed, monkeypatch):
    pins.update_pins()

    def slower(workload, seed, trace):
        detail = _detail(workload, seed, trace)
        if trace:
            detail["layers"]["script.verify.self_s"] *= 3
        return detail

    monkeypatch.setattr(pins, "_smoke_run", slower)
    assert pins.check_pins() == 0


def test_a_newly_declared_count_fails_until_re_pinned(stubbed, monkeypatch,
                                                     capsys):
    pins.update_pins()
    monkeypatch.setattr(pins, "_counted", lambda: COUNTED + ["sim.events"])
    assert pins.check_pins() == 1
    assert ("MISMATCH alpha seed 11 sim.events: pinned None, now 900"
            in capsys.readouterr().out)
    pins.update_pins()
    assert pins.check_pins() == 0


def test_a_failed_run_or_a_changed_workload_set_fails(stubbed, monkeypatch):
    pins.update_pins()
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha"])
    assert pins.check_pins() == 1      # beta's pins are stale
    monkeypatch.setattr(pins, "_workloads", lambda: ["alpha", "beta", "gamma"])
    assert pins.check_pins() == 1      # gamma is unpinned

    def failing(workload, seed, trace):
        raise RuntimeError(f"{workload} seed {seed}: the run failed")

    monkeypatch.setattr(pins, "_smoke_run", failing)
    assert pins.check_pins() == 1
