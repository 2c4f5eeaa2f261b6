"""The metrics registry: instruments, labels, cardinality, snapshots."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, StatsView


def test_counter_inc_and_value():
    registry = MetricsRegistry()
    counter = registry.counter("c.requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_gauge_set_and_inc():
    registry = MetricsRegistry()
    gauge = registry.gauge("g.depth")
    gauge.set(7.5)
    assert gauge.value == 7.5
    gauge.inc(0.5)
    assert gauge.value == 8.0


def test_registering_same_name_same_shape_returns_same_instrument():
    registry = MetricsRegistry()
    a = registry.counter("c.x", "host")
    b = registry.counter("c.x", "host")
    assert a is b


def test_kind_mismatch_rejected():
    registry = MetricsRegistry()
    registry.counter("c.x")
    with pytest.raises(ConfigurationError):
        registry.gauge("c.x")


def test_labelnames_mismatch_rejected():
    registry = MetricsRegistry()
    registry.counter("c.x", "host")
    with pytest.raises(ConfigurationError):
        registry.counter("c.x", "peer")


def test_wrong_label_keys_rejected():
    registry = MetricsRegistry()
    counter = registry.counter("c.x", "host")
    with pytest.raises(ConfigurationError):
        counter.labels(peer="a")


def test_labeled_series_are_independent():
    registry = MetricsRegistry()
    counter = registry.counter("c.x", "host")
    counter.labels(host="a").inc()
    counter.labels(host="b").inc(2)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["c.x{host=a}"] == 1
    assert snapshot["counters"]["c.x{host=b}"] == 2


def test_unlabeled_access_on_labeled_instrument_rejected():
    registry = MetricsRegistry()
    counter = registry.counter("c.x", "host")
    with pytest.raises(ConfigurationError):
        counter.inc()


def test_label_cardinality_overflow_collapses():
    registry = MetricsRegistry(max_label_sets=3)
    counter = registry.counter("c.x", "txid")
    for i in range(10):
        counter.labels(txid=f"tx-{i}").inc()
    snapshot = registry.snapshot()["counters"]
    # Three real children plus one overflow bucket absorbing the rest.
    assert len(snapshot) == 4
    assert snapshot["c.x{txid=__overflow__}"] == 7
    assert registry.label_overflows == 7
    # Pre-existing label sets keep working after the bound is hit.
    counter.labels(txid="tx-0").inc()
    assert registry.snapshot()["counters"]["c.x{txid=tx-0}"] == 2


def test_snapshot_shape_and_sorting():
    registry = MetricsRegistry()
    registry.gauge("b.gauge").set(1.5)
    registry.counter("a.counter").inc(3)
    snapshot = registry.snapshot()
    assert set(snapshot) == {"counters", "gauges"}
    assert snapshot["counters"] == {"a.counter": 3}
    assert snapshot["gauges"] == {"b.gauge": 1.5}
    # Integral floats render as ints for stable text output.
    assert isinstance(snapshot["counters"]["a.counter"], int)


def test_stats_view_is_sorted_readonly_mapping():
    view = StatsView({"zulu": 2, "alpha": 1})
    assert list(view) == ["alpha", "zulu"]
    assert view["alpha"] == 1
    assert len(view) == 2
    assert dict(view) == {"alpha": 1, "zulu": 2}
    with pytest.raises(TypeError):
        view["alpha"] = 9  # type: ignore[index]


def test_stats_view_format_alignment():
    view = StatsView({"long_key_name": 1, "x": 2.5})
    lines = view.format().splitlines()
    assert lines[0].startswith("long_key_name")
    assert "2.5" in lines[1]
    assert StatsView({}).format() == "(no stats)"
