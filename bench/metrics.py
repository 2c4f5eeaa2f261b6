"""Metric tables: names, units, clocks, directions and regression bounds.

:data:`END_TO_END` is the one table of end-to-end metrics and bounds:
``python -m bench.compare`` applies it, and ``BENCHMARK.json``'s
``end_to_end`` is derived from it (:func:`declared_end_to_end`).  A metric
is reported only by the workloads listed for it.  ``BENCHMARK.json`` must
give every declared metric from every workload, so there each workload's
one rate metric goes by the common name :data:`RATE`, and the three metrics
only the simulated deployments have are listed with the per-layer metrics
(no bound; 0 on the other workloads).

``sim_`` in a name (unit ``sim_s``) means simulated seconds; every other
metric is on the host clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from bench.tracing import Spans, inclusive_under, layer_table

__all__ = ["Metric", "END_TO_END", "RATE", "PER_LAYER", "ROOT_SPAN",
           "declared_end_to_end", "layer_metrics"]

ROOT_SPAN = "bench.root"

# What BENCHMARK.json calls the rate metric of whichever workload ran.
RATE = "throughput_per_s"

SIM = ("paper_fig5", "light_fig5", "regions_lossy")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    # share of the baseline median by which the metric may get worse
    bound: float
    # workloads that report it; None = all
    workloads: Optional[tuple[str, ...]] = None
    # the one work-per-host-second metric of the workloads that report it
    rate: bool = False

    def reported_by(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


# Bounds from the spread measured on the shared 2-vCPU host this was written
# on (bench/README.md, "Host noise"): identical work timed in 10 s windows
# spreads 11 % (quartile distance over median), so every host timing gets
# 25 %, the widest BENCHMARK.json may declare; memory repeats within 1 %;
# simulated time and modelled bytes repeat exactly for a seed.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("exchanges_per_s", "1/s", "higher", 0.25, SIM, rate=True),
    Metric("sim_latency_p50_s", "sim_s", "lower", 0.01, SIM),
    Metric("sim_latency_p95_s", "sim_s", "lower", 0.01, SIM),
    Metric("wan_bytes_per_exchange", "B", "lower", 0.01, SIM),
    Metric("admit_tx_per_s", "1/s", "higher", 0.25, ("ledger_admit",),
           rate=True),
    Metric("connect_tx_per_s", "1/s", "higher", 0.25, ("ledger_connect",),
           rate=True),
    Metric("reorg_blocks_per_s", "1/s", "higher", 0.25, ("ledger_reorg",),
           rate=True),
    Metric("frames_per_s", "1/s", "higher", 0.25, ("radio_cell",), rate=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

# Exact for a seed, reported by the simulated deployments only.
_SIM_ONLY = tuple(m for m in END_TO_END if m.workloads == SIM and not m.rate)


def declared_end_to_end() -> list[dict[str, Any]]:
    """``BENCHMARK.json``'s ``end_to_end``: the rate metrics under their
    common name, then the metrics every workload reports."""
    rates = [m for m in END_TO_END if m.rate]
    (unit, better, bound), = {(m.unit, m.better, m.bound) for m in rates}
    rows = [{"name": RATE, "unit": unit, "better": better, "bound": bound}]
    rows += [{"name": m.name, "unit": m.unit, "better": m.better,
              "bound": m.bound}
             for m in END_TO_END if m.workloads is None]
    return rows


# -- per layer --------------------------------------------------------------------

# Spans whose calls and self time are layer metrics of their own.
_SPAN_METRICS = (
    "crypto.ecdsa_verify", "crypto.ecdsa_sign", "crypto.rsa_keygen",
    "crypto.rsa_ops", "crypto.hash160",
    "script.verify", "script.analysis",
    "blockchain.mempool_accept", "blockchain.connect", "blockchain.mine",
    "blockchain.wallet_build", "blockchain.checkpoint",
    "p2p.wan_send", "p2p.gossip_rx",
    "lora.channel_complete",
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows: list[tuple[str, str, str]] = []
    for span in _SPAN_METRICS:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
    rows += [
        ("crypto.aes.self_s", "s", "lower"),
        ("blockchain.mempool_accept.rejected", "count", "lower"),
        ("blockchain.script_cache.hit_ratio", "ratio", "higher"),
        ("blockchain.verifications_per_tx", "ratio", "lower"),
        ("blockchain.reorg.count", "count", "lower"),
        ("blockchain.reorg.blocks_disconnected", "count", "lower"),
        ("blockchain.reorg.self_s", "s", "lower"),
        ("p2p.messages_per_exchange", "ratio", "lower"),
        ("p2p.messages_lost", "count", "lower"),
        ("p2p.sync.rounds", "count", "lower"),
        ("p2p.sync.self_s", "s", "lower"),
        ("p2p.block_bytes_per_block", "B", "lower"),
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("sim.events_per_exchange", "ratio", "lower"),
        ("sim.loop_self_s", "s", "lower"),
        ("lora.frames_sent", "count", "lower"),
        ("lora.listeners_per_frame", "ratio", "lower"),
        ("lora.collision_share", "ratio", "lower"),
        ("core.assemble.self_s", "s", "lower"),
        ("core.bootstrap.self_s", "s", "lower"),
        ("core.daemon_jobs.calls", "count", "lower"),
        ("core.agent_steps.self_s", "s", "lower"),
        ("light.server.requests", "count", "lower"),
        ("light.server.self_s", "s", "lower"),
        ("light.spv.proofs_verified", "count", "higher"),
        ("light.spv.self_s", "s", "lower"),
        ("light.compact.reconstructed_ratio", "ratio", "higher"),
        ("light.multicast.rounds", "count", "lower"),
        ("light.multicast.missed", "count", "lower"),
        ("obs.span_cost_share", "ratio", "lower"),
        ("obs.unattributed_share", "ratio", "lower"),
    ]
    rows += [(m.name, m.unit, m.better) for m in _SIM_ONLY]
    return tuple(rows)


# BENCHMARK.json's per_layer: (name, unit, better).
PER_LAYER = _per_layer()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Spans, counters: dict[str, float],
                  end_to_end: dict[str, float], span_cost_ns: float
                  ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Every :data:`PER_LAYER` metric of one traced run, plus the full
    span table (``name -> calls, self_s, extra``) it was derived from.

    ``end_to_end`` is the run's own end-to-end metrics.  A layer the
    workload bypasses reads 0.
    """
    table = layer_table(spans)
    empty = {"calls": 0, "self_s": 0.0, "extra": 0}

    def row(name: str) -> dict[str, float]:
        return table.get(name, empty)

    if spans.name[0] != ROOT_SPAN:
        raise ValueError(f"first span is {spans.name[0]!r}, not the root")
    wall = spans.duration(0) / 1e9
    attributed = sum(r["self_s"] for r in table.values())
    if abs(attributed - wall) > 0.01 * wall:
        raise ValueError(
            f"span self times sum to {attributed:.3f} s, traced wall is "
            f"{wall:.3f} s: spans do not nest")
    loop_s = sum(spans.duration(span) for span, name
                 in enumerate(spans.name) if name == "sim.loop") / 1e9

    count = counters.get
    exchanges = count("exchanges", 0)
    lookups = count("script_cache_hits", 0) + count("script_cache_misses", 0)
    verdicts = (count("frames_delivered", 0)
                + count("frames_lost_collision", 0)
                + count("frames_lost_sensitivity", 0))
    frames = count("frames_resolved", row("lora.channel_complete")["calls"])

    values: dict[str, float] = {}
    for span in _SPAN_METRICS:
        values[f"{span}.calls"] = row(span)["calls"]
        values[f"{span}.self_s"] = row(span)["self_s"]
    values.update({
        "crypto.aes.self_s": row("crypto.aes")["self_s"],
        "blockchain.mempool_accept.rejected":
            row("blockchain.mempool_accept")["extra"],
        "blockchain.script_cache.hit_ratio":
            _ratio(count("script_cache_hits", 0), lookups),
        "blockchain.verifications_per_tx":
            _ratio(row("crypto.ecdsa_verify")["calls"],
                   count("transactions", 0)),
        "blockchain.reorg.count": row("blockchain.reorg")["calls"],
        "blockchain.reorg.blocks_disconnected":
            row("blockchain.reorg")["extra"],
        "blockchain.reorg.self_s": row("blockchain.reorg")["self_s"],
        "p2p.messages_per_exchange":
            _ratio(count("wan_messages", 0), exchanges),
        "p2p.messages_lost": count("wan_messages_lost", 0),
        "p2p.sync.rounds": count("sync_rounds", 0),
        "p2p.sync.self_s": row("p2p.sync")["self_s"],
        "p2p.block_bytes_per_block":
            _ratio(count("wan_block_bytes", 0), count("blocks", 0)),
        "sim.events": count("events", 0),
        "sim.events_per_s": _ratio(count("events", 0), loop_s),
        "sim.events_per_exchange": _ratio(count("events", 0), exchanges),
        "sim.loop_self_s": row("sim.loop")["self_s"],
        "lora.frames_sent": count("frames_sent", 0),
        "lora.listeners_per_frame": _ratio(verdicts, frames),
        "lora.collision_share":
            _ratio(count("frames_lost_collision", 0), verdicts),
        "core.assemble.self_s": row("core.assemble")["self_s"],
        # funding + replay onto each site: the ledger calls made
        # directly by the assembly
        "core.bootstrap.self_s":
            inclusive_under(spans, "core.assemble", "blockchain."),
        "core.daemon_jobs.calls": count("daemon_jobs", 0),
        "core.agent_steps.self_s": row("core.agent_steps")["self_s"],
        "light.server.requests": row("light.server")["calls"],
        "light.server.self_s": row("light.server")["self_s"],
        "light.spv.proofs_verified": count("spv_proofs_verified", 0),
        "light.spv.self_s": row("light.spv")["self_s"],
        "light.compact.reconstructed_ratio":
            _ratio(count("compact_from_mempool", 0),
                   count("compact_received", 0)),
        "light.multicast.rounds": count("multicast_rounds", 0),
        "light.multicast.missed": count("multicast_missed", 0),
        # the share of the traced wall that recording itself took,
        # estimated from the span count and the calibrated cost of one
        # span (the measured traced / untraced ratio needs both runs:
        # bench.results.summarise)
        "obs.span_cost_share": len(spans) * span_cost_ns / 1e9 / wall,
        "obs.unattributed_share":
            _ratio(row("sim.loop")["self_s"] + row(ROOT_SPAN)["self_s"],
                   wall),
    })
    values.update((m.name, end_to_end.get(m.name, 0.0)) for m in _SIM_ONLY)
    return values, table
