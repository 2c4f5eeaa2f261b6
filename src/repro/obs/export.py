"""Deterministic trace export and the Fig. 5/6 per-leg breakdown.

``export_trace_jsonl`` renders every span (in creation order — itself
deterministic) and, optionally, a registry snapshot, as canonical JSON
lines: sorted keys, no whitespace, floats straight from the sim clock.
Two runs of the same seed produce **byte-identical** output; a test
pins that.  Wall-clock profiler data is deliberately unexportable here.

``leg_breakdown`` recovers the paper's latency decomposition from the
span tree alone: the four contiguous legs of one fair exchange —

* ``leg.uplink``      — ePk downlink sent → data frame at the gateway
* ``leg.publication`` — gateway forward → recipient delivery
* ``leg.payment``     — delivery → gateway's claim tx seen on chain
* ``leg.decryption``  — claim seen → plaintext recovered

which sum, per trace, to the paper's end-to-end latency ("first message
from the gateway to the decryption of the message by the recipient",
§5.2).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.exchange import LEGS
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.obs.stats import Summary

__all__ = ["LEGS", "export_trace_jsonl", "format_breakdown",
           "leg_breakdown"]

def _clean(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    return str(value)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def export_trace_jsonl(tracer: Tracer,
                       registry: Optional[MetricsRegistry] = None) -> str:
    """All spans (creation order) then the metrics snapshot, as JSONL."""
    lines = []
    for span in tracer.spans:
        lines.append(_dumps({
            "kind": "span",
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": span.end_time,
            "status": span.status,
            "attrs": _clean(span.attrs),
        }))
    if registry is not None:
        snapshot = registry.snapshot()
        for family in ("counters", "gauges"):
            for series, value in snapshot[family].items():
                lines.append(_dumps({
                    "kind": "metric",
                    "family": family[:-1],
                    "series": series,
                    "value": value,
                }))
    return "\n".join(lines) + ("\n" if lines else "")


def leg_breakdown(tracer: Tracer) -> dict[str, Summary]:
    """Per-leg latency summaries from ``leg.*`` spans.

    ``total`` summarises, per trace, the sum of its four legs — only
    over traces where **all** legs closed ``ok`` (an exchange that lost
    a frame mid-flight has no well-defined end-to-end latency).
    """
    per_leg: dict[str, list[float]] = {leg: [] for leg in LEGS}
    per_trace: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        if not span.name.startswith("leg."):
            continue
        leg = span.name[len("leg."):]
        if leg not in per_leg or span.status != "ok":
            continue
        duration = span.duration
        if duration is None:
            continue
        per_leg[leg].append(duration)
        per_trace.setdefault(span.trace_id, {})[leg] = duration
    totals = [sum(legs.values()) for legs in per_trace.values()
              if len(legs) == len(LEGS)]
    out = {leg: Summary.of(samples) for leg, samples in per_leg.items()}
    out["total"] = Summary.of(totals)
    return out


def format_breakdown(tracer: Tracer) -> str:
    """The Fig. 5/6-style table, sourced entirely from spans."""
    breakdown = leg_breakdown(tracer)
    lines = [f"{'leg':<12} {'n':>5} {'mean s':>9} {'median s':>9} "
             f"{'p95 s':>9} {'max s':>9}"]
    for leg in (*LEGS, "total"):
        summary = breakdown[leg]
        lines.append(f"{leg:<12} {summary.count:>5} {summary.mean:>9.3f} "
                     f"{summary.median:>9.3f} {summary.p95:>9.3f} "
                     f"{summary.maximum:>9.3f}")
    return "\n".join(lines)
