"""The three comparison systems."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines import (
    AltruisticBaseline,
    LoRaWANBaseline,
    ReputationExchange,
)
from repro.core import BcWANNetwork
from repro.core.config import NetworkConfig
from repro.errors import ConfigurationError

SMALL = dict(num_gateways=3, sensors_per_gateway=4, exchange_interval=25.0,
             seed=21)
# benchmarks/test_baseline_comparison.py's scale.
SCALE = dict(num_gateways=3, sensors_per_gateway=5, exchange_interval=40.0,
             seed=17)


# -- one workload, three architectures -------------------------------------------

def test_three_architectures_share_placement_and_launches():
    """The comparison's premise: only the architecture differs.  Every
    sensor sits at the same position and every exchange is launched by the
    same device at the same instant, whichever system carries it."""
    seen = []
    for build in (BcWANNetwork, LoRaWANBaseline, AltruisticBaseline):
        testbed = build(NetworkConfig(**SMALL))
        testbed.run(num_exchanges=20)
        positions = {device_id: getattr(device, "radio", device).position
                     for device_id, device in testbed.sensors.items()}
        launches = [(r.node_id, r.t_request)
                    for r in testbed.tracker.records()]
        seen.append((positions, launches))
    assert len(seen[0][0]) == 12 and len(seen[0][1]) == 20
    assert seen[0] == seen[1] == seen[2]


def _fingerprint(report):
    digest = hashlib.sha256(json.dumps(report.latencies).encode()).hexdigest()
    return (report.exchanges_launched, report.completed, report.failed,
            digest[:12] if report.latencies else None)


@pytest.mark.parametrize("scale, exchanges, expected", [
    (SMALL, 20, [(20, 0, 20, None), (20, 20, 0, "a76661f665a0"),
                 (20, 20, 0, "4ab79ac432fe"), (20, 14, 6, "54fa018289d6")]),
    (SCALE, 60, [(60, 0, 60, None), (60, 59, 1, "7bee861ac76e"),
                 (60, 59, 1, "3071e71751fd"), (60, 19, 41, "ea8327f12a7a")]),
], ids=["seed21-20", "seed17-60"])
def test_baseline_reports_pinned(scale, exchanges, expected):
    """Outcome counts and latency digests of legacy roaming / legacy
    home / altruistic 1.0 / altruistic 0.5 (ISSUE 24's parent values)."""
    home = NetworkConfig(**{**scale, "roaming_offset": 0})
    runs = [LoRaWANBaseline(NetworkConfig(**scale)), LoRaWANBaseline(home),
            AltruisticBaseline(NetworkConfig(**scale), participation=1.0),
            AltruisticBaseline(NetworkConfig(**scale), participation=0.5)]
    assert [_fingerprint(run.run(exchanges)) for run in runs] == expected


# -- legacy LoRaWAN ------------------------------------------------------------

def test_legacy_roaming_delivers_nothing():
    """Fig. 1's architecture cannot serve foreign devices — the gap BcWAN
    fills."""
    report = LoRaWANBaseline(NetworkConfig(**SMALL)).run(num_exchanges=20)
    assert report.completed == 0
    assert report.failed >= 15
    assert report.delivery_rate == 0.0
    # The empty report follows the Summary.of([]) convention: 0.0, no raise.
    assert report.mean_latency == 0.0
    assert report.summary.count == 0


def test_legacy_home_network_works_and_is_fast():
    config = NetworkConfig(roaming_offset=0, **{k: v for k, v in SMALL.items()
                                                if k != "seed"}, seed=21)
    report = LoRaWANBaseline(config).run(num_exchanges=20)
    assert report.delivery_rate > 0.8
    # One uplink + two WAN hops: well under a second.
    assert report.mean_latency < 1.0


# -- altruistic -----------------------------------------------------------------

def test_altruistic_full_participation_delivers():
    report = AltruisticBaseline(NetworkConfig(**SMALL),
                                participation=1.0).run(num_exchanges=20)
    assert report.delivery_rate > 0.8
    assert report.mean_latency < 1.5


def test_altruistic_zero_participation_delivers_nothing():
    baseline = AltruisticBaseline(NetworkConfig(**SMALL), participation=0.0)
    report = baseline.run(num_exchanges=20)
    assert report.completed == 0
    assert baseline.drops_unwilling > 0


def test_altruistic_delivery_tracks_participation():
    """More willing gateways, more delivered messages — monotone trend."""
    rates = []
    for participation in (0.0, 0.5, 1.0):
        report = AltruisticBaseline(
            NetworkConfig(**SMALL), participation=participation,
        ).run(num_exchanges=20)
        rates.append(report.delivery_rate)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0]


def test_altruistic_participation_validation():
    with pytest.raises(ConfigurationError):
        AltruisticBaseline(NetworkConfig(**SMALL), participation=1.5)


# -- reputation -----------------------------------------------------------------

def test_honest_gateways_keep_reputation():
    exchange = ReputationExchange({"gw-0": 1.0, "gw-1": 1.0})
    report = exchange.simulate(50)
    assert report.stolen_payments == 0
    assert report.delivery_rate == 1.0
    assert all(score == 1.0 for score in exchange.reputation.values())


def test_thief_steals_before_detection():
    """Reputation 'reduces the probability of misbehavior but does not
    eliminate the problem' (section 4.4): the thief keeps early payments."""
    exchange = ReputationExchange({"gw-thief": 0.0}, threshold=0.5)
    report = exchange.simulate(40)
    assert report.stolen_payments > 0          # money lost — unlike BcWAN
    assert report.refused_low_reputation > 0   # eventually blacklisted
    assert exchange.reputation["gw-thief"] < 0.5


def test_intermittent_cheater_evades_blacklist_longer():
    steady = ReputationExchange({"gw": 0.0}, threshold=0.5)
    sneaky = ReputationExchange({"gw": 0.7}, threshold=0.5)
    steady_report = steady.simulate(100)
    sneaky_report = sneaky.simulate(100)
    assert sneaky_report.paid > steady_report.paid
    assert sneaky_report.stolen_payments > 0


def test_reputation_validation(monkeypatch):
    with pytest.raises(ConfigurationError):
        ReputationExchange({"gw": 1.5})
    with pytest.raises(ConfigurationError):
        ReputationExchange({"gw": 1.0}, threshold=2.0)
    with monkeypatch.context() as patch, pytest.raises(ConfigurationError):
        patch.setattr(ReputationExchange, "SMOOTHING", 0.0)
        ReputationExchange({"gw": 1.0})
    exchange = ReputationExchange({"gw": 1.0})
    from repro.baselines.reputation import ReputationReport
    with pytest.raises(ConfigurationError):
        exchange.attempt("unknown", ReputationReport())


def test_reputation_deterministic_with_rng():
    import random
    a, b = ReputationExchange({"gw": 0.5}), ReputationExchange({"gw": 0.5})
    a.rng, b.rng = random.Random(3), random.Random(3)
    a, b = a.simulate(30), b.simulate(30)
    assert a.stolen_payments == b.stolen_payments
    assert a.delivered == b.delivered
