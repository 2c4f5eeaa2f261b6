"""Baseline comparison — BcWAN vs legacy LoRaWAN vs altruistic blockchain.

The paper's qualitative positioning (sections 1, 3, 6), quantified on one
workload: sensors deployed in *foreign* cells.

* legacy LoRaWAN (Fig. 1): fastest when it works, but foreign gateways
  drop everything — 0 % roaming delivery;
* altruistic blockchain (Durand et al. [26]): low latency, but delivery
  collapses with gateway goodwill — no incentive to forward;
* BcWAN: a few seconds of latency buys full roaming delivery *and* pays
  the gateways (the reputation scheme's stolen payments are shown for
  contrast).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_header, print_row
from repro.baselines import (
    AltruisticBaseline,
    LoRaWANBaseline,
    ReputationExchange,
)
from repro.core import BcWANNetwork, NetworkConfig

SCALE = dict(num_gateways=3, sensors_per_gateway=5, exchange_interval=40.0,
             seed=17)
EXCHANGES = 60


def test_architecture_comparison(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    bcwan = BcWANNetwork(NetworkConfig(**SCALE)).run(EXCHANGES)
    legacy = LoRaWANBaseline(NetworkConfig(**SCALE)).run(EXCHANGES)
    legacy_home = LoRaWANBaseline(
        NetworkConfig(**{**SCALE, "roaming_offset": 0})).run(EXCHANGES)
    altruistic_full = AltruisticBaseline(
        NetworkConfig(**SCALE), participation=1.0).run(EXCHANGES)
    altruistic_half = AltruisticBaseline(
        NetworkConfig(**SCALE), participation=0.5).run(EXCHANGES)

    print_header("Architecture comparison — roaming workload")
    print_row("system", "delivery", "mean lat (s)", "pays gw?")
    for system, report, pays in (
            ("legacy LoRaWAN (roaming)", legacy, "n/a"),
            ("legacy LoRaWAN (home)", legacy_home, "n/a"),
            ("altruistic, 100% goodwill", altruistic_full, "no"),
            ("altruistic, 50% goodwill", altruistic_half, "no"),
            ("BcWAN", bcwan, "yes")):
        print_row(system, f"{report.completed}/{report.exchanges_launched}",
                  report.mean_latency if report.latencies else "-", pays)

    # The paper's claims, as assertions:
    assert legacy.completed == 0                       # no roaming
    assert bcwan.completed > 0.8 * bcwan.exchanges_launched
    assert altruistic_half.delivery_rate < 0.8         # goodwill-limited
    # BcWAN pays a latency premium over the trustful/home path...
    assert bcwan.mean_latency > legacy_home.mean_latency
    # ...but stays near real time (the paper's conclusion).
    assert bcwan.mean_latency < 5.0


def test_fair_exchange_vs_reputation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    exchange = ReputationExchange(
        {"gw-honest-1": 1.0, "gw-honest-2": 0.95, "gw-thief": 0.1},
        threshold=0.5,
    )
    report = exchange.simulate(100)
    print_header("Fair exchange vs pay-first reputation (§4.4)")
    print_row("payments made", "-", report.paid)
    print_row("payments stolen", "-", report.stolen_payments)
    print_row("loss rate", "-", report.loss_rate)
    print_row("BcWAN value-at-risk", "-", 0.0)
    # Reputation loses real money before the thief is blacklisted;
    # BcWAN's script makes that loss structurally impossible.
    assert report.stolen_payments > 0
