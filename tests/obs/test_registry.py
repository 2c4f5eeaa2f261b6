"""The metrics registry: sources read at snapshot time, labels, snapshots."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (Counted, Keyed, MetricsRegistry, StatsView,
                                 read)


def test_counter_inc_and_value():
    registry = MetricsRegistry()
    owner = SimpleNamespace(requests=0)
    registry.register("c", owner, counters=("requests",))
    owner.requests += 1
    owner.requests += 4
    assert registry.snapshot()["counters"]["c.requests"] == 5


def test_gauge_set_and_inc():
    registry = MetricsRegistry()
    owner = SimpleNamespace(depth=0.0)
    registry.register("g", owner, gauges=("depth",))
    owner.depth = 7.5
    assert registry.snapshot()["gauges"]["g.depth"] == 7.5
    owner.depth += 0.5
    assert registry.snapshot()["gauges"]["g.depth"] == 8


def test_registering_same_series_twice_rejected():
    registry = MetricsRegistry()
    registry.register("c", SimpleNamespace(x=1), counters=("x",), host="a")
    with pytest.raises(ConfigurationError):
        registry.register("c", SimpleNamespace(x=2), counters=("x",),
                          host="a")


def test_kind_mismatch_rejected():
    registry = MetricsRegistry()
    registry.register("c", SimpleNamespace(x=0), counters=("x",))
    with pytest.raises(ConfigurationError):
        registry.register("c", SimpleNamespace(x=0), gauges=("x",))


def test_labelnames_mismatch_rejected():
    registry = MetricsRegistry()
    registry.register("c", SimpleNamespace(x=0), counters=("x",), host="a")
    with pytest.raises(ConfigurationError):
        registry.register("c", SimpleNamespace(x=0), counters=("x",),
                          host="b", peer="c")


def test_wrong_label_keys_rejected():
    registry = MetricsRegistry()
    registry.register("c", SimpleNamespace(x=0), counters=("x",), host="a")
    with pytest.raises(ConfigurationError):
        registry.register("c", SimpleNamespace(x=0), counters=("x",),
                          peer="a")


def test_labeled_series_are_independent():
    registry = MetricsRegistry()
    a, b = SimpleNamespace(x=1), SimpleNamespace(x=2)
    registry.register("c", a, counters=("x",), host="a")
    registry.register("c", b, counters=("x",), host="b")
    snapshot = registry.snapshot()
    assert snapshot["counters"]["c.x{host=a}"] == 1
    assert snapshot["counters"]["c.x{host=b}"] == 2


def test_unlabeled_access_on_labeled_instrument_rejected():
    registry = MetricsRegistry()
    registry.register("c", SimpleNamespace(x=0), counters=("x",), host="a")
    with pytest.raises(ConfigurationError):
        registry.register("c", SimpleNamespace(x=0), counters=("x",))


def test_snapshot_shape_and_sorting():
    registry = MetricsRegistry()
    registry.register("b", SimpleNamespace(gauge=1.5), gauges=("gauge",))
    registry.register("a", SimpleNamespace(counter=3.0), counters=("counter",))
    snapshot = registry.snapshot()
    assert set(snapshot) == {"counters", "gauges"}
    assert snapshot["counters"] == {"a.counter": 3}
    assert snapshot["gauges"] == {"b.gauge": 1.5}
    # Integral floats render as ints for stable text output.
    assert isinstance(snapshot["counters"]["a.counter"], int)


def test_sources_are_read_through_the_owner_at_snapshot_time():
    registry = MetricsRegistry()
    owner = SimpleNamespace(node=SimpleNamespace(height=3), agent=None)
    registry.register("d", owner, counters={"agent_timeouts":
                                            "agent.timeouts"},
                      gauges={"height": "node.height",
                              "double": lambda o: 2 * o.node.height})
    owner.node = SimpleNamespace(height=9)  # the owner's part is replaced
    snapshot = registry.snapshot()
    assert snapshot["gauges"] == {"d.double": 18, "d.height": 9}
    # A path through an absent component reads 0.
    assert snapshot["counters"] == {"d.agent_timeouts": 0}
    assert read(owner, "agent.timeouts") == 0


def test_none_reading_leaves_the_series_out():
    registry = MetricsRegistry()
    owner = SimpleNamespace(ratio=None)
    registry.register("w", owner, gauges=("ratio",))
    assert registry.snapshot()["gauges"] == {}
    owner.ratio = 0.25
    assert registry.snapshot()["gauges"] == {"w.ratio": 0.25}


def test_mapping_reading_fans_out_by_label():
    registry = MetricsRegistry()
    owner = SimpleNamespace(faults={})
    registry.register("chaos", owner,
                      counters={"faults": Keyed("faults", "kind")}, host="h")
    assert registry.snapshot()["counters"] == {}
    owner.faults["loss"] = 2
    owner.faults["delay"] = 1
    assert list(registry.snapshot()["counters"].items()) == [
        ("chaos.faults{host=h,kind=delay}", 1),
        ("chaos.faults{host=h,kind=loss}", 2),
    ]


class _Relay(Counted):
    COUNTERS = {"sent": "sent",
                "faults": Keyed("faults", "kind")}
    GAUGES = {"depth": lambda relay: len(relay.queue)}
    VIEW_ONLY = {"settled_at": "settled_at"}

    def __init__(self) -> None:
        self.queue: list[int] = []
        self.faults: dict[str, int] = {}
        self.settled_at = None


def test_counted_tables_feed_both_the_export_and_the_view():
    relay = _Relay()
    assert relay.sent == 0  # a field read from its own name starts at 0
    registry = MetricsRegistry()
    registry.register("relay", relay, host="h")
    relay.sent += 2
    relay.queue.append(1)
    relay.faults["loss"] = 1
    assert registry.snapshot() == {
        "counters": {"relay.faults{host=h,kind=loss}": 1,
                     "relay.sent{host=h}": 2},
        "gauges": {"relay.depth{host=h}": 1}}
    # The view shows the same tables; a None reading is left out.
    assert dict(relay.stats()) == {"depth": 1, "faults.loss": 1, "sent": 2}
    relay.settled_at = 4.5
    assert relay.stats()["settled_at"] == 4.5
    assert "settled_at" not in str(registry.snapshot())
    assert _Relay().sent == 0  # each instance counts for itself


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
