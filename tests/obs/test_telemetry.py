"""Plain counter bags read at snapshot time: DaemonStats and ChaosTelemetry."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, StatsView
from repro.obs.telemetry import ChaosTelemetry, DaemonStats


# -- deprecated import homes ---------------------------------------------------

def test_removed_shim_modules_stay_gone():
    """The historical re-export shims were deleted; imports must fail."""
    for removed in ("repro.core.metrics", "repro.sim.trace"):
        with pytest.raises(ModuleNotFoundError):
            __import__(removed)


# -- DaemonStats ---------------------------------------------------------------

def test_daemon_stats_attribute_arithmetic():
    stats = DaemonStats()
    stats.jobs_served += 1
    stats.jobs_served += 1
    assert stats.jobs_served == 2
    stats.busy_time += 1.5
    assert stats.busy_time == 1.5
    # Nothing mirrors into the bag: engine and sync readings come from
    # the daemon, and a detached bag has none.
    assert stats()["script_cache_hits"] == 0
    assert stats()["sync_timeouts"] == 0


def test_daemon_stats_counters_are_ints():
    stats = DaemonStats()
    stats.jobs_served += 3
    assert isinstance(stats.jobs_served, int)


def test_daemon_stats_backed_by_shared_registry():
    registry = MetricsRegistry()
    a, b = DaemonStats(), DaemonStats()
    for host, stats in (("gw-a", a), ("gw-b", b)):
        registry.register("daemon", stats, host=host)
    a.jobs_served += 5
    b.jobs_served += 7
    counters = registry.snapshot()["counters"]
    assert counters["daemon.jobs_served{host=gw-a}"] == 5
    assert counters["daemon.jobs_served{host=gw-b}"] == 7


def test_daemon_stats_mean_wait_zero_on_empty():
    stats = DaemonStats()
    assert stats.mean_wait() == 0.0
    stats.queue_wait_total = 6.0
    stats.jobs_served = 3
    assert stats.mean_wait() == 2.0


def test_daemon_stats_uniform_accessor():
    stats = DaemonStats()
    stats.jobs_served += 2
    view = stats()
    assert isinstance(view, StatsView)
    assert view["jobs_served"] == 2
    assert view["mean_wait"] == 0.0
    assert set(view) == {*DaemonStats.COUNTERS, *DaemonStats.GAUGES,
                         "mean_wait"}


# -- ChaosTelemetry ------------------------------------------------------------

def test_chaos_telemetry_record_fault():
    telemetry = ChaosTelemetry()
    telemetry.record_fault("drop", "gw-0->gw-1 BlockMessage", now=1.25)
    telemetry.record_fault("drop", "gw-1->gw-0 TxMessage", now=2.5)
    telemetry.record_fault("delay", "gw-0->gw-1 +3.0s", now=3.0)
    assert telemetry.faults_injected == {"drop": 2, "delay": 1}
    assert telemetry.total_faults == 3
    assert telemetry.fault_log[0] == "t=1.250000 drop gw-0->gw-1 BlockMessage"


def test_chaos_telemetry_faults_injected_typed_snapshot():
    telemetry = ChaosTelemetry()
    assert telemetry.faults_injected == {}
    telemetry.record_fault("crash", "gw-2", now=0.0)
    snapshot = telemetry.faults_injected
    assert isinstance(snapshot, dict)
    assert all(isinstance(k, str) and isinstance(v, int)
               for k, v in snapshot.items())


def test_chaos_telemetry_stats_view():
    telemetry = ChaosTelemetry()
    telemetry.messages_dropped += 4
    telemetry.record_fault("drop", "x", now=0.5)
    telemetry.reconvergence_time = 12.5
    view = telemetry.stats()
    assert view["messages_dropped"] == 4
    assert view["faults_injected.drop"] == 1
    assert view["reconvergence_time"] == 12.5
    assert {field for field in ChaosTelemetry.COUNTERS
            if field != "faults_injected"} <= set(view)
