"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` stays ``tests``): these exercise the
harness at ``--smoke`` sizes, not the program.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

from bench import NOMINAL_SECONDS, ROOT, hostspeed, metrics, tracing, workloads
from bench.__main__ import DETAIL_PREFIX, main, run_workload
from bench.compare import incomparable, verdict
from bench.results import RESULTS_DIR, git_sha

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def bench_command(*arguments: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bench", *arguments],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


# -- the declared contract ---------------------------------------------------------

def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "-m", "bench"]
    assert declared["paths"] == ["bench"]
    assert declared["run_seconds"] == NOMINAL_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert declared["end_to_end"] == metrics.declared_end_to_end()
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in metrics.PER_LAYER]


def test_every_workload_has_one_rate_metric_of_its_own():
    rates = {m.name: m for m in metrics.END_TO_END if m.rate}
    for workload in workloads.WORKLOADS.values():
        assert rates[workload.rate].reported_by(workload.name)
        assert [m.name for m in rates.values()
                if m.reported_by(workload.name)] == [workload.rate]


def test_benchmark_json_is_inside_the_contract_limits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in declared["end_to_end"])
    setup = next(e for e in declared["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in declared["end_to_end"])


def test_no_retired_knob_is_named_outside_the_readme():
    """The names live in the README's do-not-use list only."""
    readme = (ROOT / "bench" / "README.md").read_text()
    section = readme.split("### Retired knobs the benchmark must not name")[1]
    retired = re.findall(r"^\* `(\w+)`$", section.split("\n## ")[0], re.M)
    assert len(retired) == 7
    for path in sorted((ROOT / "bench").glob("*.py")):
        text = path.read_text()
        assert not [name for name in retired if name in text], path.name


# -- the command, end to end ---------------------------------------------------------

def test_smoke_full_set_runs_every_workload_and_repeats_agree():
    """Two untraced runs and a traced run per workload: ``summarise``
    refuses differing digests, so exit 0 means the same seed gave the
    same output three times."""
    completed = bench_command("--smoke", "--repeats", "2")
    path = RESULTS_DIR / f"{git_sha()}-11-smoke.json"
    try:
        assert completed.returncode == 0, completed.stderr
        result = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in result["workloads"].items():
        expected = {m.name for m in metrics.END_TO_END if m.reported_by(name)}
        assert set(entry["metrics"]) == expected
        assert all(s["n"] == 2 and s["median"] > 0
                   for s in entry["metrics"].values())
        assert set(entry["layers"]) == {n for n, _, _ in metrics.PER_LAYER} | {
            "obs.trace_overhead_ratio"}
        assert name in completed.stdout
    layers = {name: entry["layers"]
              for name, entry in result["workloads"].items()}
    # Which workload bypasses which layer.
    for metric in ("crypto.ecdsa_verify.calls", "blockchain.connect.calls",
                   "p2p.wan_send.calls", "core.daemon_jobs.calls"):
        assert layers["radio_cell"][metric] == 0
    for ledger in ("ledger_admit", "ledger_connect", "ledger_reorg"):
        for metric in ("sim.events", "lora.frames_sent", "p2p.wan_send.calls",
                       "core.agent_steps.self_s", "wan_bytes_per_exchange"):
            assert layers[ledger][metric] == 0
    assert layers["ledger_admit"]["blockchain.reorg.count"] == 0
    assert layers["ledger_connect"]["blockchain.reorg.count"] == 0
    # smoke: 2 validators, fed A1 | B1 B2, so one reorganisation each
    assert layers["ledger_reorg"]["blockchain.reorg.count"] == 2
    assert layers["ledger_reorg"]["blockchain.reorg.blocks_disconnected"] == 2
    assert layers["ledger_reorg"]["crypto.ecdsa_verify.calls"] == layers[
        "ledger_reorg"]["crypto.ecdsa_sign.calls"]  # the producers' own only
    assert layers["light_fig5"]["wan_bytes_per_exchange"] == result[
        "workloads"]["light_fig5"]["metrics"]["wan_bytes_per_exchange"]["median"]
    assert layers["light_fig5"]["light.spv.proofs_verified"] > 0
    assert layers["paper_fig5"]["light.server.requests"] == 0
    assert layers["regions_lossy"]["blockchain.checkpoint.calls"] > 0


def test_single_run_prints_the_declared_json_line():
    for trace, declared in (
            (0, [d["name"] for d in metrics.declared_end_to_end()]),
            (1, [n for n, _, _ in metrics.PER_LAYER])):
        completed = bench_command("--workload", "radio_cell", "--smoke",
                                  "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace))
        assert completed.returncode == 0, completed.stderr
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
        assert list(last["metrics"]) == declared
        assert all(set(m) == {"value", "unit"}
                   for m in last["metrics"].values())


def test_a_checkout_without_the_program_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    completed = bench_command("--workload", "radio_cell", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_another_seed_gives_another_digest():
    for name in workloads.WORKLOADS:
        digests = {run_workload(name, seed, 1.0, False, True)["digest"]
                   for seed in (11, 23)}
        assert len(digests) == 2, name


def _overcounted(report):
    gateway = next(iter(report.gateway_rewards))
    report.gateway_rewards[gateway] += 1  # a claim no recipient funded


def _undelivered(report):
    report.completed -= 1  # the ledgers paid for it all the same
    report.failed += 1


@pytest.mark.parametrize("workload, tamper", [
    ("paper_fig5", _overcounted),
    ("regions_lossy", _overcounted),
    ("regions_lossy", _undelivered),
])
def test_a_failed_check_exits_non_zero_and_prints_no_number(
        workload, tamper, monkeypatch, capsys):
    original = workloads.BcWANNetwork.run

    def tampered(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        tamper(report)
        return report

    monkeypatch.setattr(workloads.BcWANNetwork, "run", tampered)
    code = main(["--workload", workload, "--smoke"])
    captured = capsys.readouterr()
    assert code == 1
    assert "CHECK FAILED" in captured.err
    assert DETAIL_PREFIX not in captured.out and "metrics" not in captured.out


# -- reference seconds -------------------------------------------------------------------

def test_a_stretch_probes_while_the_call_runs_and_cleans_up():
    handler = signal.getsignal(signal.SIGALRM)
    stretch = hostspeed.Stretch()

    def busy():
        end = time.perf_counter() + 3 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
        return "done"

    start = time.perf_counter()
    assert stretch.call(busy) == "done"
    wall = time.perf_counter() - start
    assert len(stretch.speeds) >= 2
    assert 0 < stretch.raw_s < wall  # the probes' own time is not counted
    assert stretch.reference_s == pytest.approx(
        stretch.raw_s * statistics.fmean(stretch.speeds))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_the_timer_probe_stays_out_of_the_recorder():
    """A signal can arrive while a span is being recorded, so only the
    probes the benchmark makes itself are spans."""
    stretch = hostspeed.Stretch()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        stretch._on_alarm(signal.SIGALRM, None)
        stretch.probe()
    finally:
        recorder.restore()
    assert recorder.spans.name == ["bench.probe"]
    assert len(stretch.speeds) == 2


# -- tracing ---------------------------------------------------------------------------

def test_self_time_on_a_hand_built_tree():
    spans = tracing.Spans()
    root = spans.add("root", 0, 100)
    a = spans.add("a", 10, 50, root)            # nested in root
    spans.add("b", 20, 30, a)                   # nested in a
    spans.add("a", 35, 45, a)                   # re-entrant: a inside a
    spans.add("b", 60, 90, root, count=3)       # sibling of the first a
    assert tracing.self_times(spans) == [30, 20, 10, 10, 30]
    table = tracing.layer_table(spans)
    assert table["root"] == {"calls": 1, "self_s": 30e-9, "extra": 0}
    assert table["a"]["calls"] == 2
    assert table["a"]["self_s"] == pytest.approx(30e-9)
    assert table["b"]["calls"] == 4
    assert table["b"]["self_s"] == pytest.approx(40e-9)
    # Self times partition the root's duration.
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        100e-9)
    assert tracing.inclusive_under(spans, "root", "b") == pytest.approx(30e-9)


def test_recorder_nests_spans_and_reads_results():
    ticks = iter(range(0, 1000, 10))
    recorder = tracing.Recorder(clock=lambda: next(ticks))

    class Verdict:
        accepted = False

    inner = recorder.traced("inner", lambda: Verdict(), tracing._rejected)
    outer = recorder.traced("outer", lambda: inner())
    outer()
    spans = recorder.spans
    assert spans.name == ["outer", "inner"]
    assert list(spans.parent) == [-1, 0]
    assert (spans.start[0], spans.start[1], spans.end[1], spans.end[0]) == (
        0, 10, 20, 30)
    assert list(spans.extra) == [0, 1]


def _rebound_objects():
    targets = [target for _, group, _ in tracing.CALLS for target in group]
    targets += list(tracing.REGISTRARS)
    return {target: tracing._resolve(target)[2] for target in targets}


def test_every_rebound_callable_is_restored_after_a_traced_run():
    before = _rebound_objects()
    detail = run_workload("paper_fig5", 11, 1.0, True, True)
    assert detail["spans"]["crypto.ecdsa_verify"]["calls"] > 0
    assert detail["spans"]["core.agent_steps"]["calls"] > 0
    after = _rebound_objects()
    assert all(after[target] is before[target] for target in before)
    leftovers = [
        f"{module_name}.{key}"
        for module_name, module in sys.modules.items()
        if module_name.startswith("repro") and module is not None
        for key, value in vars(module).items()
        if hasattr(value, "__bench_original__")]
    assert leftovers == []


def test_a_reorganising_batch_is_one_reorg_span():
    """``Chain.add_blocks`` that cannot pipeline calls ``add_block`` per
    block: the reorganisation is recorded on the inner span only."""
    sizes = workloads.WORKLOADS["ledger_reorg"].sizes(1.0, True)
    state = workloads.WORKLOADS["ledger_reorg"].setup(5, sizes, None)
    (first, _), (second, _) = state.feeds  # A1 | B1 B2
    validator = workloads._validator(state, False, None)
    validator.add_blocks(first)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        results = validator.add_blocks(second)
    finally:
        recorder.restore()
    assert [r.reorged for r in results] == [False, True]
    table = tracing.layer_table(recorder.spans)
    assert table["blockchain.reorg"]["calls"] == 1
    assert table["blockchain.reorg"]["extra"] == 1
    assert table["blockchain.connect"]["calls"] == 2  # the batch, and B1


def test_rebinding_is_undone_when_the_workload_raises(monkeypatch):
    before = _rebound_objects()

    def broken(*args, **kwargs):
        raise RuntimeError("set-up failed")

    monkeypatch.setitem(
        workloads.WORKLOADS, "radio_cell",
        workloads.Workload("radio_cell", "", "frames_per_s", 1,
                           workloads.WORKLOADS["radio_cell"].sizes,
                           broken, broken))
    with pytest.raises(RuntimeError):
        run_workload("radio_cell", 11, 1.0, True, True)
    after = _rebound_objects()
    assert all(after[target] is before[target] for target in before)


# -- compare -----------------------------------------------------------------------------

def _summary(*values: float) -> dict:
    from bench.results import quartiles
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def test_verdicts():
    rate = metrics.Metric("rate", "1/s", "higher", 0.10)
    setup = metrics.Metric("setup_s", "s", "lower", 0.10)
    steady = _summary(100, 101, 102)
    assert verdict(rate, steady, _summary(95, 96, 97)) == "ok"
    assert verdict(rate, steady, _summary(80, 81, 82)) == "REGRESSION"
    assert verdict(rate, steady, _summary(120, 121, 122)) == "ok"
    # Spread wider than the bound: unresolved, unless a clean sweep.
    assert verdict(rate, steady, _summary(80, 101, 125)) == "unresolved"
    assert verdict(rate, _summary(60, 80, 100),
                   _summary(101, 130, 160)) == "better"
    assert verdict(rate, _summary(100, 120, 140),
                   _summary(60, 75, 90)) == "REGRESSION"
    assert verdict(rate, _summary(100, 120, 140),
                   _summary(60, 75, 101)) == "unresolved"
    assert verdict(setup, _summary(10, 10, 10),
                   _summary(10.5, 10.5, 10.5)) == "ok"
    assert verdict(setup, _summary(10, 10, 10),
                   _summary(12, 12, 12)) == "REGRESSION"


def test_results_of_different_inputs_are_not_compared():
    entry = {"sizes": {"exchanges": 12}}
    base = {"seed": 11, "seconds": 15, "smoke": False, "bench_hash": "a",
            "workloads": {"paper_fig5": entry}}
    assert incomparable(base, dict(base)) == []
    assert incomparable(base, dict(base, seed=23))
    assert incomparable(base, dict(base, bench_hash="b"))
    other = dict(base, workloads={"paper_fig5": {"sizes": {"exchanges": 13}}})
    assert incomparable(base, other)
