"""Run sweep cells locally, one deterministic JSON result row per cell.

Result rows contain **no wall-clock fields** — every value is a pure
function of the cell (params + derived seed) — and are serialized with
``sort_keys`` and ``allow_nan=False``, so two runs of the same grid write
byte-identical files and a cell that completed zero exchanges still
produces a well-formed row (explicit ``launched: 0`` / zeroed latency
summary) rather than NaN.

Chaos plans are canned by name (the ``chaos`` axis) and built per cell
from the cell's derived seed, mirroring how ``tests/chaos`` wires
:class:`repro.chaos.injector.ChaosInjector` into a ``BcWANNetwork``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Optional

from repro.chaos.faults import FaultPlan
from repro.chaos.injector import ChaosInjector
from repro.core.config import NetworkConfig
from repro.core.network import BcWANNetwork
from tools.sweep.grid import SweepCell

__all__ = [
    "CHAOS_PLANS",
    "cell_filename",
    "dumps_result",
    "run_cell",
    "run_sweep",
]


def _chaos_none(cfg: NetworkConfig, seed: int) -> Optional[FaultPlan]:
    return None


def _chaos_wan_loss(cfg: NetworkConfig, seed: int) -> Optional[FaultPlan]:
    """10 % WAN message loss for the whole run (gossip must self-heal)."""
    return FaultPlan(seed=seed).lose_links(0.10)


def _chaos_partition(cfg: NetworkConfig, seed: int) -> Optional[FaultPlan]:
    """Split the sites in half for one block-interval-scaled window."""
    names = list(cfg.site_names)
    if len(names) < 2:
        return None
    half = len(names) // 2
    start = 2 * cfg.chain.block_interval
    return FaultPlan(seed=seed).partition(
        [names[:half], names[half:]], start=start,
        heal_at=start + 4 * cfg.chain.block_interval)


def _chaos_gateway_crash(cfg: NetworkConfig, seed: int) -> Optional[FaultPlan]:
    """Crash the last site's daemon mid-run; restart it four intervals on."""
    at = 2 * cfg.chain.block_interval
    return FaultPlan(seed=seed).crash(
        cfg.site_names[-1], at=at, restart_at=at + 4 * cfg.chain.block_interval)


CHAOS_PLANS: dict[str, Callable[[NetworkConfig, int], Optional[FaultPlan]]] = {
    "none": _chaos_none,
    "wan-loss": _chaos_wan_loss,
    "partition": _chaos_partition,
    "gateway-crash": _chaos_gateway_crash,
}


def dumps_result(obj: Any) -> str:
    """The one serialization every sweep artifact goes through."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, indent=2) + "\n"


def run_cell(cell: SweepCell, num_exchanges: int = 40,
             max_duration: Optional[float] = None) -> dict[str, Any]:
    """Assemble, run, and summarize one cell's scenario.

    Cell params are :class:`repro.core.config.NetworkConfig` kwargs, plus
    two harness-level keys: ``chaos`` (a :data:`CHAOS_PLANS` name) and
    ``num_exchanges`` (overrides the sweep-wide default).
    """
    params = cell.as_kwargs()
    chaos = params.pop("chaos", "none")
    if chaos not in CHAOS_PLANS:
        raise ValueError(f"unknown chaos plan {chaos!r} "
                         f"(have {sorted(CHAOS_PLANS)})")
    num_exchanges = params.pop("num_exchanges", num_exchanges)
    config = NetworkConfig(seed=cell.seed, **params)
    network = BcWANNetwork(config)
    plan = CHAOS_PLANS[chaos](config, cell.seed)
    if plan is not None:
        ChaosInjector(network.sim, network.wan, plan,
                      daemons=network.all_daemons(),
                      registry=network.registry).install()
    report = network.run(num_exchanges=num_exchanges,
                         max_duration=max_duration)
    row = {
        "cell": cell.cell_id,
        "index": cell.index,
        "seed": cell.seed,
        "params": {**params, "chaos": chaos},
        "num_exchanges": num_exchanges,
        "launched": report.exchanges_launched,
        "completed": report.completed,
        "failed": report.failed,
        "pending": report.pending,
        "completion_rate": report.delivery_rate,
        "sim_duration_s": report.duration,
        "chain_height": report.chain_height,
        "frames_lost_collision": report.frames_lost_collision,
        "frames_lost_sensitivity": report.frames_lost_sensitivity,
        "latency": report.summary.to_dict(),
    }
    json.dumps(row, allow_nan=False)  # fail the cell, not the merge
    return row


def cell_filename(cell: SweepCell) -> str:
    """Stable per-cell filename: sortable index + cell-id digest.

    The digest keeps ids with filesystem-hostile characters safe; the
    index prefix keeps a directory listing in grid order.
    """
    digest = hashlib.sha256(cell.cell_id.encode()).hexdigest()
    return f"cell-{cell.index:04d}-{digest[:12]}.json"


def run_sweep(cells: list[SweepCell], out_dir: str | Path,
              num_exchanges: int = 40, max_duration: Optional[float] = None,
              resume: bool = True,
              runner: Callable[..., dict[str, Any]] = run_cell,
              echo: Optional[Callable[[str], None]] = None) -> list[dict]:
    """Run every cell, writing one JSON file per cell plus ``results.json``.

    With ``resume`` (the default), cells whose result file already exists
    are loaded instead of re-run — a partially completed sweep picks up
    where it stopped.  The merged ``results.json`` is rewritten from the
    per-cell rows in grid order either way, so a resumed sweep and a
    from-scratch sweep end byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict[str, Any]] = []
    executed = 0
    for cell in cells:
        path = out / cell_filename(cell)
        if resume and path.exists():
            row = json.loads(path.read_text())
            status = "cached"
        else:
            row = runner(cell, num_exchanges=num_exchanges,
                         max_duration=max_duration)
            path.write_text(dumps_result(row))
            executed += 1
            status = "ran"
        rows.append(row)
        if echo is not None:
            echo(f"[{cell.index + 1}/{len(cells)}] {status:<6} {cell.cell_id}"
                 f" -> completed {row['completed']}/{row['launched']}")
    (out / "results.json").write_text(dumps_result(rows))
    if echo is not None:
        echo(f"{executed} ran, {len(cells) - executed} cached -> "
             f"{out / 'results.json'}")
    return rows
