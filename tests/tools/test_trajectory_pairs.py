"""``python -m tools.trajectory pairs``: the protocol, without the runs.

The real command clones two revisions and runs the benchmark in each;
here the clone and the runner are stubbed, so the test covers what the
tool decides: which side runs first in every pair, the statistics it
prints, that two sides running different programs fail it, and the
result files ``--out`` writes for ``python -m bench.compare``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import compare
from tools.trajectory import pairs

RATES = {"base": [100.0, 102.0, 98.0, 101.0, 99.0],
         "change": [150.0, 149.0, 152.0, 97.0, 151.0]}
SETUPS = {"base": [1.0] * 5, "change": [0.9, 1.1, 0.9, 1.1, 1.0]}


class StubRunner:
    """Hands out the fixed series above, in call order per side and seed;
    ``moved`` overrides fields of the run ``(side, seed, index)``.  A
    checkout is told apart by its directory name: the side itself, or
    the side's ``pairs.CLONE_DIRS`` name."""

    def __init__(self, moved=None):
        self.calls: list[tuple[str, int]] = []
        self.moved = moved or {}

    def __call__(self, checkout: Path, workload: str, seed: int) -> dict:
        side = SIDE_OF_DIR.get(checkout.name, checkout.name)
        index = self.calls.count((side, seed))
        self.calls.append((side, seed))
        detail = {"workload": workload, "seed": seed, "derived_seed": 7,
                  "seconds": 10, "smoke": False, "sizes": {"frames": 9},
                  "host": {"nproc": 1},
                  "digest": "d", "attempted": 10, "failed": 1,
                  "metrics": {"frames_per_s": RATES[side][index],
                              "setup_s": SETUPS[side][index],
                              "peak_rss_mb": 40.0 + (side == "change")},
                  "units": {"frames_per_s": "1/s", "setup_s": "s",
                            "peak_rss_mb": "MB"}}
        detail.update(self.moved.get((side, seed, index), {}))
        return detail


CHECKOUTS = {side: Path(side) for side in pairs.SIDES}
SIDE_OF_DIR = {name: side for side, name in pairs.CLONE_DIRS.items()}


def test_the_first_side_alternates_every_pair():
    runner = StubRunner()
    rows = pairs.run_pairs(runner, CHECKOUTS, "radio_cell", [11, 23], 3)
    assert [row["first"] for row in rows] == ["base", "change"] * 3
    assert runner.calls == [
        ("base", 11), ("change", 11), ("change", 11), ("base", 11),
        ("base", 11), ("change", 11),
        ("change", 23), ("base", 23), ("base", 23), ("change", 23),
        ("change", 23), ("base", 23)]
    # Each row holds both sides' run of the same pair.
    assert [row["seed"] for row in rows] == [11] * 3 + [23] * 3


def test_wins_medians_quartiles_and_ratio():
    rows = pairs.run_pairs(StubRunner(), CHECKOUTS, "radio_cell", [11], 5)
    summary = {entry["metric"]: entry for entry in pairs.summarise(rows)}
    rate = summary["frames_per_s"]
    assert (rate["better"], rate["wins"], rate["pairs"]) == ("higher", 4, 5)
    assert rate["base"] == (98.5, 100.0, 101.5)       # (q1, median, q3)
    assert rate["change"] == (123.0, 150.0, 151.5)
    assert rate["ratio"] == 1.5
    setup = summary["setup_s"]
    assert (setup["better"], setup["wins"]) == ("lower", 2)
    assert summary["peak_rss_mb"]["wins"] == 0
    assert summary["peak_rss_mb"]["ratio"] == pytest.approx(41.0 / 40.0)


@pytest.mark.parametrize("field,value", [("digest", "moved"),
                                         ("attempted", 11), ("failed", 0)])
def test_sides_running_different_programs_fail(capsys, field, value):
    runner = StubRunner(moved={("change", 23, 1): {field: value}})
    rows = pairs.run_pairs(runner, CHECKOUTS, "radio_cell", [11, 23], 2)
    assert pairs.report(rows) == 1
    out = capsys.readouterr().out
    assert f"MISMATCH seed 23 pair 2 {field}" in out
    assert "equal on both sides in all 2 pairs" in out     # seed 11


def test_the_command_prints_the_claim_table(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "resolve", lambda revision: revision * 3)
    cloned = []

    def checkout(sha, destination):
        cloned.append(sha)
        return Path(destination.name)

    code = pairs.pairs_command("abcd", "ef01", "radio_cell", [11], 5,
                               runner=StubRunner(), checkout=checkout)
    assert code == 0
    assert cloned == ["abcdabcdabcd", "ef01ef01ef01"]
    out = capsys.readouterr().out
    assert "base abcdabcdabcd  change ef01ef01ef01" in out
    assert "4/5" in out and "100 [98.5, 101.5]" in out
    assert "digest d attempted 10 failed 1: equal on both sides" in out


def test_the_clones_sit_at_paths_of_one_length(monkeypatch):
    """Whatever the sides are called, neither clone's path is longer:
    the benchmark's peak RSS followed the clone's name when it did."""
    monkeypatch.setattr(pairs, "resolve", lambda revision: revision * 3)
    destinations = {}

    def checkout(sha, destination):
        destinations[sha] = destination
        return Path(destination.name)

    assert pairs.pairs_command("abcd", "ef01", "radio_cell", [11], 1,
                               runner=StubRunner(), checkout=checkout) == 0
    base, change = destinations["abcdabcdabcd"], destinations["ef01ef01ef01"]
    assert base.parent == change.parent and base != change
    assert len(str(base)) == len(str(change))


def test_an_unknown_revision_fails_before_anything_runs(capsys):
    runner = StubRunner()
    code = pairs.pairs_command("no-such-revision", "HEAD", "radio_cell",
                               [11], 1, runner=runner)
    assert code == 1
    assert "FAILED: no commit named 'no-such-revision'" in \
        capsys.readouterr().out
    assert runner.calls == []


def test_out_writes_results_that_bench_compare_judges(monkeypatch, tmp_path,
                                                      capsys):
    monkeypatch.setattr(pairs, "resolve", lambda revision: revision * 3)
    monkeypatch.setattr(pairs, "bench_hash", lambda checkout: "h")
    out = tmp_path / "pairs"
    code = pairs.pairs_command(
        "abcd", "ef01", "radio_cell", [11, 23], 5, runner=StubRunner(),
        checkout=lambda sha, destination: Path(destination.name), out=out)
    assert code == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "base-11.json", "base-23.json", "change-11.json", "change-23.json"]
    base, change = (json.loads((out / f"{side}-11.json").read_text())
                    for side in pairs.SIDES)
    assert (base["git_sha"], base["seed"], base["repeats"]) == (
        "abcdabcdabcd", 11, 5)
    entry = base["workloads"]["radio_cell"]
    assert (entry["digest"], entry["attempted"], entry["failed"]) == (
        "d", 10, 1)
    rate = entry["metrics"]["frames_per_s"]
    assert rate["values"] == RATES["base"]
    assert (rate["q1"], rate["median"], rate["q3"], rate["n"]) == (
        98.5, 100.0, 101.5, 5)
    capsys.readouterr()
    assert compare.compare(base, change) == 0
    assert "regressions: none" in capsys.readouterr().out
    # Read the other way round, the faster side is a regression.
    assert compare.compare(change, base) == 1
