"""Registry-backed counter bags: ``DaemonStats`` and ``ChaosTelemetry``.

Both read like plain attribute bags (``stats.jobs_served += 1``) while
the *storage* is a :class:`~repro.obs.registry.MetricsRegistry`: every
counter read or ``+=`` resolves to a registry cell, so one
``registry.snapshot()`` sees the whole scenario.  Calling a bag
(``daemon.stats()``) returns a
:class:`~repro.obs.registry.StatsView` — the one blessed read path for
examples and tooling.

The ``ad-hoc-telemetry`` rule of ``tools/analysis`` forbids *new*
counter dataclasses outside ``repro.obs``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import MetricsRegistry, StatsView

__all__ = ["ChaosTelemetry", "DaemonStats"]


class _RegistryCounters:
    """Base for counter bags whose fields live in a registry.

    Subclasses declare ``_prefix``, ``_counters`` and ``_gauges``
    (tuples of field names).  Each field becomes a property reading and
    writing one registry cell, so both ``stats.x += 1`` and the
    assignment style ``stats.x = engine_value`` work.  When no registry
    is supplied the instance creates a private one (an independent bag
    of zeros).
    """

    _prefix = ""
    _counters: tuple[str, ...] = ()
    _gauges: tuple[str, ...] = ()
    _labelnames: tuple[str, ...] = ()

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 **label_values: str) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._labels = {name: label_values.get(name, "")
                        for name in self._labelnames}
        self._cells: dict[str, Any] = {}
        for name in self._counters:
            self._cells[name] = self._cell("counter", name)
        for name in self._gauges:
            self._cells[name] = self._cell("gauge", name)

    def _cell(self, kind: str, name: str) -> Any:
        metric = f"{self._prefix}.{name}"
        if kind == "counter":
            instrument = self.registry.counter(metric, *self._labelnames)
        else:
            instrument = self.registry.gauge(metric, *self._labelnames)
        if self._labelnames:
            return instrument.labels(**self._labels)
        return instrument

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)

        def make_property(field_name: str, kind: str):
            def getter(self: "_RegistryCounters") -> float:
                value = self._cells[field_name].value
                if kind == "counter" or float(value).is_integer():
                    return int(value)
                return value

            def setter(self: "_RegistryCounters", value: float) -> None:
                cell = self._cells[field_name]
                if kind == "counter":
                    # The daemon mirrors engine numbers by ``=``:
                    # emulate assignment with a delta.
                    cell.inc(value - cell.value)
                else:
                    cell.set(value)

            return property(getter, setter)

        for name in cls._counters:
            setattr(cls, name, make_property(name, "counter"))
        for name in cls._gauges:
            setattr(cls, name, make_property(name, "gauge"))

    def _numbers(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in (*self._counters, *self._gauges):
            out[name] = getattr(self, name)
        return out


class DaemonStats(_RegistryCounters):
    """Telemetry for one :class:`~repro.core.daemon.BlockchainDaemon`.

    Callable — ``daemon.stats()`` — returning a :class:`StatsView`, the
    uniform accessor shared with sync, gossip and chaos.
    """

    _prefix = "daemon"
    _labelnames = ("host",)
    _counters = (
        "jobs_served",
        "blocks_verified",
        "script_cache_hits",
        "script_cache_misses",
        "standardness_rejects",
        "script_fast_rejects",
        "crashes",
        "restarts",
        "jobs_lost_to_crash",
        "messages_refused_offline",
        "sync_timeouts",
        "sync_retries",
        "sync_backoff_resets",
        "max_queue_length",
    )
    _gauges = (
        "busy_time",
        "stall_time",
        "queue_wait_total",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 host: str = "") -> None:
        super().__init__(registry, host=host)
        self.chaos: Optional["ChaosTelemetry"] = None

    def mean_wait(self) -> float:
        """Mean queue wait; 0.0 on no jobs (``Summary.of([])`` style)."""
        if self.jobs_served == 0:
            return 0.0
        return self.queue_wait_total / self.jobs_served

    def __call__(self) -> StatsView:
        values: dict[str, object] = dict(self._numbers())
        values["mean_wait"] = self.mean_wait()
        return StatsView(values)


class ChaosTelemetry(_RegistryCounters):
    """Everything the chaos injector did to a run, plus the outcome.

    ``fault_log`` has a deterministic format: one
    ``t=<sim time> <kind> <detail>`` line per injected fault,
    byte-identical across same-seed runs (tests pin that).
    """

    _prefix = "chaos"
    _counters = (
        "messages_dropped",
        "messages_corrupted",
        "messages_duplicated",
        "messages_delayed",
        "partition_drops",
        "partitions_started",
        "partitions_healed",
        "crashes",
        "restarts",
        "sync_timeouts",
        "sync_retries",
        "backoff_resets",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
        self._faults = self.registry.counter("chaos.faults_injected", "kind")
        self.fault_log: list[str] = []
        self.reconvergence_time: Optional[float] = None

    @property
    def faults_injected(self) -> dict[str, int]:
        """Per-kind injected fault counts (a snapshot dict)."""
        out: dict[str, int] = {}
        for series, cell in self._faults.series():
            kind = series[len("chaos.faults_injected{kind="):-1]
            out[kind] = int(cell.value)
        return out

    def record_fault(self, kind: str, detail: str, now: float) -> None:
        self._faults.labels(kind=kind).inc()
        self.fault_log.append(f"t={now:.6f} {kind} {detail}")

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def __call__(self) -> StatsView:
        values: dict[str, object] = dict(self._numbers())
        values["total_faults"] = self.total_faults
        for kind, count in self.faults_injected.items():
            values[f"faults_injected.{kind}"] = count
        if self.reconvergence_time is not None:
            values["reconvergence_time"] = self.reconvergence_time
        return StatsView(values)

    stats = __call__
