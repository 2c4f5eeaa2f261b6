"""Unified observability: sim-time tracing, metrics, export.

The observability layer has three deliberately separate concerns:

* :mod:`repro.obs.registry` — a central :class:`MetricsRegistry` that
  reads every component's counters and gauges where they are counted,
  at ``snapshot()`` time, into one sorted shape.
* :mod:`repro.obs.tracing` — a sim-clock :class:`Tracer` producing
  nested spans with deterministic ids, used to follow one fair exchange
  (Fig. 3) or one block's life across daemons and the WAN.
* :mod:`repro.obs.export` — deterministic JSONL export (byte-identical
  for the same seed) plus the human-readable per-leg latency breakdown
  mirroring the paper's Figs. 5/6.

Determinism contract: everything reachable from the JSONL export — span
ids, trace ids, sim timestamps, metric values — is a pure function of
the scenario seed.
"""

from repro.obs.exchange import ExchangeRecord, ExchangeTracker
from repro.obs.export import (export_trace_jsonl, format_breakdown,
                              leg_breakdown)
from repro.obs.registry import MetricsRegistry, StatsView
from repro.obs.stats import Summary, histogram
from repro.obs.telemetry import ChaosTelemetry, DaemonStats
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "ChaosTelemetry",
    "DaemonStats",
    "ExchangeRecord",
    "ExchangeTracker",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "StatsView",
    "Summary",
    "Tracer",
    "export_trace_jsonl",
    "format_breakdown",
    "histogram",
    "leg_breakdown",
]
