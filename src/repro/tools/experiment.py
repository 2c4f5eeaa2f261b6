"""Command-line front end to the paper's experiments.

::

    bcwan-experiment fig5 --exchanges 400 --seed 5
    bcwan-experiment fig6 --exchanges 400
    bcwan-experiment capacity
    bcwan-experiment doublespend
    bcwan-experiment baselines --exchanges 60

Each subcommand prints the same paper-vs-measured tables as the pytest
benchmark harness; this entry point exists for quick interactive sweeps
(different seeds, block intervals, stall parameters) without pytest.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.stats import histogram

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcwan-experiment",
        description="Reproduce BcWAN (Middleware '18) experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fig5", "exchange latency, block verification disabled"),
        ("fig6", "exchange latency, block verification enabled"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--exchanges", type=int, default=400)
        p.add_argument("--seed", type=int, default=5)
        p.add_argument("--gateways", type=int, default=5)
        p.add_argument("--sensors", type=int, default=30)
        p.add_argument("--block-interval", type=float, default=15.0)
        p.add_argument("--stall-base", type=float, default=8.0)
        p.add_argument("--histogram", action="store_true",
                       help="print the latency histogram")
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="enable tracing and write the run's JSONL "
                            "trace export to PATH")
        p.add_argument("--breakdown", action="store_true",
                       help="enable tracing and print the per-leg "
                            "latency breakdown (Fig. 5/6 legs)")

    sub.add_parser("capacity", help="the 183 msgs/sensor/hour arithmetic")

    p = sub.add_parser("doublespend", help="the §6 double-spend race")
    p.add_argument("--confirmations", type=int, nargs="*",
                   default=[0, 1, 2, 6])

    p = sub.add_parser("baselines", help="BcWAN vs legacy vs altruistic")
    p.add_argument("--exchanges", type=int, default=60)
    p.add_argument("--seed", type=int, default=17)

    return parser


def _run_latency_figure(args, verify_blocks: bool) -> int:
    from repro.blockchain import ChainParams
    from repro.core import BcWANNetwork, NetworkConfig

    tracing = bool(args.trace_out) or args.breakdown
    config = NetworkConfig(
        num_gateways=args.gateways,
        sensors_per_gateway=args.sensors,
        seed=args.seed,
        chain=ChainParams(
            verify_blocks=verify_blocks,
            block_interval=args.block_interval,
            verification_stall_base=args.stall_base,
        ),
        tracing=tracing,
    )
    print(f"running {args.exchanges} exchanges "
          f"(verify_blocks={verify_blocks}, seed={args.seed})...")
    network = BcWANNetwork(config)
    report = network.run(num_exchanges=args.exchanges)
    print(report.format())
    if args.breakdown:
        print()
        print(network.format_breakdown())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(network.export_trace())
        print(f"trace written to {args.trace_out}")
    paper = 30.241 if verify_blocks else 1.604
    if report.latencies:
        print(f"paper mean: {paper} s — measured mean: "
              f"{report.mean_latency:.3f} s")
    if args.histogram and report.latencies:
        peak = 0
        rows = histogram(report.latencies, bins=16)
        peak = max(count for _lo, _hi, count in rows) or 1
        for lo, hi, count in rows:
            bar = "#" * round(count / peak * 40)
            print(f"  {lo:8.2f}-{hi:8.2f} s | {count:5d} | {bar}")
    return 0


def _run_capacity() -> int:
    from repro.lora.dutycycle import max_messages_per_hour
    from repro.lora.phy import LoRaModulation

    print(f"{'SF':>4} {'ToA(ms)':>9} {'msgs/h (exact)':>15} "
          f"{'msgs/h (nominal)':>17}")
    for sf in range(7, 13):
        modulation = LoRaModulation(spreading_factor=sf)
        exact = max_messages_per_hour(modulation.time_on_air(132), 0.01)
        nominal = max_messages_per_hour(
            modulation.nominal_time_on_air(132), 0.01)
        print(f"SF{sf:>2} {modulation.time_on_air(132) * 1000:>9.1f} "
              f"{exact:>15.1f} {nominal:>17.1f}")
    print("\npaper (SF7, nominal): 183 messages/sensor/hour")
    return 0


def _run_doublespend(confirmations: list[int]) -> int:
    from repro.attacks import run_double_spend

    print(f"{'confirmations':>14} {'key leaked':>11} {'gateway paid':>13} "
          f"{'attack wins':>12}")
    for depth in confirmations:
        result = run_double_spend(confirmations_required=depth)
        print(f"{depth:>14} {str(result.key_revealed):>11} "
              f"{str(result.gateway_paid):>13} "
              f"{str(result.attack_succeeded):>12}")
    return 0


def _run_baselines(args) -> int:
    from repro.baselines import AltruisticBaseline, LoRaWANBaseline
    from repro.core import BcWANNetwork, NetworkConfig

    scale = dict(num_gateways=3, sensors_per_gateway=5,
                 exchange_interval=40.0, seed=args.seed)
    bcwan = BcWANNetwork(NetworkConfig(**scale)).run(args.exchanges)
    legacy = LoRaWANBaseline(NetworkConfig(**scale)).run(args.exchanges)
    altruistic = AltruisticBaseline(NetworkConfig(**scale),
                                    participation=0.5).run(args.exchanges)

    print(f"{'system':>28} {'delivered':>10} {'mean lat(s)':>12}")
    for system, report in (("legacy LoRaWAN (roaming)", legacy),
                           ("altruistic (50% goodwill)", altruistic),
                           ("BcWAN", bcwan)):
        latency = f"{report.mean_latency:.2f}" if report.latencies else "-"
        print(f"{system:>28} {report.completed:>10} {latency:>12}")
    return 0


def main() -> int:
    args = build_parser().parse_args()
    if args.command == "fig5":
        return _run_latency_figure(args, verify_blocks=False)
    if args.command == "fig6":
        return _run_latency_figure(args, verify_blocks=True)
    if args.command == "capacity":
        return _run_capacity()
    if args.command == "doublespend":
        return _run_doublespend(args.confirmations)
    if args.command == "baselines":
        return _run_baselines(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
