"""The exporter's contract: byte-identical same-seed JSONL, and a
per-leg breakdown whose legs sum to the paper's end-to-end latency."""

from __future__ import annotations

import json

import pytest

from repro.core import BcWANNetwork, NetworkConfig
from repro.obs.export import LEGS, export_trace_jsonl, leg_breakdown


def _traced_run():
    config = NetworkConfig(num_gateways=2, sensors_per_gateway=2,
                           exchange_interval=30.0, seed=11, tracing=True)
    network = BcWANNetwork(config)
    report = network.run(num_exchanges=6)
    return network, report


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


def test_same_seed_exports_are_byte_identical(traced):
    network, _report = traced
    again, _ = _traced_run()
    assert network.export_trace() == again.export_trace()


def test_export_is_valid_jsonl(traced):
    network, _report = traced
    lines = network.export_trace().splitlines()
    assert lines, "a traced run must export at least one line"
    records = [json.loads(line) for line in lines]
    kinds = {record["kind"] for record in records}
    assert kinds == {"span", "metric"}
    span_names = {r["name"] for r in records if r["kind"] == "span"}
    assert {"exchange", "wan.transit", "block.mine"} <= span_names
    assert {"leg." + leg for leg in LEGS} <= span_names
    # Metric lines carry the registry snapshot.
    series = {r["series"] for r in records if r["kind"] == "metric"}
    assert any(s.startswith("daemon.jobs_served") for s in series)


def test_export_never_leaks_envelope_message_ids(traced):
    network, _report = traced
    for line in network.export_trace().splitlines():
        record = json.loads(line)
        if record["kind"] == "span":
            assert "message_id" not in record["attrs"]


def test_legs_sum_to_paper_latency(traced):
    network, report = traced
    assert report.completed > 0
    by_trace: dict[int, float] = {}
    for span in network.tracer.spans:
        if span.name.startswith("leg.") and span.status == "ok":
            by_trace[span.trace_id] = (by_trace.get(span.trace_id, 0.0)
                                       + span.duration)
    for record in network.tracker.completed():
        assert record.latency == pytest.approx(
            by_trace[record.trace.trace_id], abs=1e-9)


def test_report_breakdown_sourced_from_spans(traced):
    network, report = traced
    breakdown = leg_breakdown(network.tracer)
    assert set(report.legs) == {*LEGS, "total"}
    for leg in LEGS:
        assert report.legs[leg].count == report.completed
        assert report.legs[leg].mean == breakdown[leg].mean
    table = network.format_breakdown()
    for leg in (*LEGS, "total"):
        assert leg in table


def test_untraced_run_exports_nothing_and_reports_no_legs():
    config = NetworkConfig(num_gateways=2, sensors_per_gateway=1,
                           exchange_interval=30.0, seed=11)
    network = BcWANNetwork(config)
    report = network.run(num_exchanges=2)
    assert report.legs == {}
    assert export_trace_jsonl(network.tracer) == ""
