"""Differential pinning of ``RadioChannel`` to the per-listener oracle.

Every case drives the same scenario through the production channel and
through ``tests/oracles/channel_reference.py`` — the seed loop with a
brute-force interferer search, no numpy, no cache, no pruning — and
requires *exact* equality of:

- the per-listener verdict log (delivered / collision / sensitivity),
  which is the collision-set comparison: the two disagreeing on which
  interferer suppressed which listener would diverge here;
- every RSSI, compared as raw floats (``==``, no tolerance);
- the channel counters;
- the delivery call order.

Some listeners have no receiver (``deliver=None``): both channels evaluate
and count them like any other and make no call.

The production channel runs each case twice: with a verdict log, which
makes it compute every listener's RSSI exactly, and without one, as in
every deployment, where it computes exact RSSIs for the delivered
listeners with a receiver only; the second run's deliveries and counters
must equal the oracle's too.  ``tests/lora/test_channel_margin.py`` holds the
cases built to sit exactly on a threshold.

Three layers: seeded corpora — 200+ random overlapping-transmission
cases, and a family whose interferers share the deployments' two power
levels and a few positions (the per-power loudest-interferer reduction,
over shared cached rows) — a hypothesis search over the first space,
and a full 5-gateway paper-shaped network run whose exported JSONL
traces must be byte-identical with the oracle installed in every site.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import testbed as core_testbed
from repro.core.config import NetworkConfig
from repro.core.network import BcWANNetwork
from repro.lora.channel import Listener, Position, RadioChannel
from repro.lora.frames import DataFrame
from repro.lora.phy import LoRaModulation
from repro.sim.core import Simulator
from tests.oracles.channel_reference import (ReferenceRadioChannel,
                                             frame_counters)

FREQS = (868_100_000, 868_300_000, 868_500_000)
# Start times dense enough that airtimes (60 ms at SF7 up to seconds at
# SF12) overlap constantly, including exact ties.
TIME_GRID = (0.0, 0.0, 0.01, 0.02, 0.03, 0.05, 0.1, 0.3, 0.7, 1.5)
CORPUS_CASES = 220


def run_channel(channel_class, listeners, transmissions,
                logged: bool = True):
    """Replay one scenario on one channel; return its full observable state.

    A listener is ``(name, (x, y), owner)`` plus an optional ``receives``
    flag: ``False`` registers it with ``deliver=None``.  A transmission is
    ``(t, sender, (x, y), sf, freq_idx, power, payload)``.
    ``logged=False`` leaves ``verdict_log`` unset, as every deployment
    does: the production channel then computes exact RSSIs for the
    delivered listeners with a receiver only.
    """
    sim = Simulator()
    channel = channel_class(sim, random.Random(99))
    deliveries: list[tuple] = []
    channel.verdict_log = [] if logged else None
    for name, (x, y), owner, *receives in listeners:
        deliver = None
        if (receives or [True])[0]:
            def deliver(frame, rssi, n=name):
                deliveries.append((n, frame.sender, frame.nonce, rssi))
        channel.add_listener(Listener(
            name=name, position=Position(x, y), deliver=deliver,
            half_duplex_owner=owner,
        ))
    for i, (t, sender, (x, y), sf, freq_idx, power, payload) in \
            enumerate(transmissions):
        frame = DataFrame(sender=sender,
                          encrypted_message=b"\xab" * payload, nonce=i)
        modulation = LoRaModulation(spreading_factor=sf)
        sim.call_at(t, lambda s=sender, p=Position(x, y), f=frame,
                    m=modulation, fi=freq_idx, pw=power:
                    channel.transmit(s, p, f, m, frequency_hz=FREQS[fi],
                                     power_dbm=pw))
    sim.run()
    return deliveries, channel.verdict_log, frame_counters(channel), channel


def assert_matches_oracle(listeners, transmissions) -> tuple:
    oracle = run_channel(ReferenceRadioChannel, listeners, transmissions)
    production = run_channel(RadioChannel, listeners, transmissions)
    assert production[0] == oracle[0], "delivery lists diverge"
    assert production[1] == oracle[1], "verdict logs diverge"
    assert production[2] == oracle[2], "channel counters diverge"
    # The path every deployment takes: no verdict log.
    unlogged = run_channel(RadioChannel, listeners, transmissions,
                           logged=False)
    assert unlogged[0] == oracle[0], "unlogged delivery lists diverge"
    assert unlogged[2] == oracle[2], "unlogged channel counters diverge"
    return oracle, production


def random_case(rng: random.Random):
    """One random scenario: listeners + overlapping transmissions."""
    listeners = []
    for li in range(rng.randint(1, 5)):
        owner = f"dev-{li}" if rng.random() < 0.5 else None
        listeners.append((f"ls-{li}",
                          (rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)),
                          owner, rng.random() < 0.7))
    transmissions = []
    for _ in range(rng.randint(2, 8)):
        transmissions.append((
            rng.choice(TIME_GRID),
            f"dev-{rng.randint(0, 5)}",
            (rng.uniform(-6000, 6000), rng.uniform(-6000, 6000)),
            rng.randint(7, 12),
            rng.randint(0, len(FREQS) - 1),
            rng.uniform(2.0, 27.0),
            rng.randint(4, 24),
        ))
    return listeners, transmissions


def corpus():
    rng = random.Random(0xBC_1A)
    return [random_case(rng) for _ in range(CORPUS_CASES)]


def test_seeded_corpus_pins_vector_to_scalar():
    counted_only = 0
    for listeners, transmissions in corpus():
        _, production = assert_matches_oracle(listeners, transmissions)
        assert production[3].loss_rows_built, "no path-loss row was built"
        silent = {name for name, _, _, receives in listeners if not receives}
        counted_only += sum(verdict == "delivered" and listener in silent
                            for _, listener, verdict, _ in production[1])
    # Frames were delivered at listeners with no receiver.
    assert counted_only > CORPUS_CASES // 4


# The sensor and the RX2-downlink power of the deployments (dBm).
SHARED_POWERS = (14.0, 27.0)
SHARED_POWER_CASES = 120


def shared_power_case(rng: random.Random):
    """One scenario whose interferers share power levels and positions.

    Powers come from ``SHARED_POWERS`` and transmitters from three spots,
    on one spreading factor and two channels, so a completing frame often
    has several interferers at one power, some of them sharing a cached
    row: the per-power reduction of the loudest interferer is exercised.
    """
    spots = [(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000))
             for _ in range(3)]
    listeners = []
    for li in range(rng.randint(1, 5)):
        owner = f"dev-{li}" if rng.random() < 0.5 else None
        listeners.append((f"ls-{li}",
                          (rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)),
                          owner, rng.random() < 0.7))
    transmissions = []
    for _ in range(rng.randint(3, 9)):
        transmissions.append((
            rng.choice(TIME_GRID[:7]),
            f"dev-{rng.randint(0, 5)}",
            rng.choice(spots),
            7,
            rng.randint(0, 1),
            rng.choice(SHARED_POWERS),
            rng.randint(4, 24),
        ))
    return listeners, transmissions


def test_shared_power_corpus_pins_per_power_reduction(monkeypatch):
    seen = []
    real = RadioChannel._deliver

    def recorded(self, transmission, interferers):
        seen.append([(other.power_dbm, other.position)
                     for other in interferers])
        return real(self, transmission, interferers)

    monkeypatch.setattr(RadioChannel, "_deliver", recorded)
    rng = random.Random(0xBC_2B)
    for _ in range(SHARED_POWER_CASES):
        assert_matches_oracle(*shared_power_case(rng))
    # Completions with two interferers at one power, and with two at one
    # power and one position (one cached row object for both).
    powers = sum(len(others) > len({p for p, _ in others})
                 for others in seen)
    rows = sum(len(others) > len(set(others)) for others in seen)
    assert powers > 300 and rows > 150, (powers, rows)


def test_exact_tie_and_capture_edge():
    # Two equal-power transmitters at the same position and instant: the
    # capture margin is exactly 0 < threshold at every listener, so both
    # frames collide everywhere audible — a worst case for any vectorized
    # tie handling.
    listeners = [("gw", (0.0, 0.0), None), ("far", (9000.0, 0.0), None)]
    transmissions = [
        (0.0, "a", (500.0, 0.0), 7, 0, 14.0, 12),
        (0.0, "b", (500.0, 0.0), 7, 0, 14.0, 12),
    ]
    oracle, _ = assert_matches_oracle(listeners, transmissions)
    deliveries, log, counters, _ = oracle
    assert not deliveries
    assert counters[3] == 2  # both frames lost to collision at "gw"
    assert {v for (_, ls, v, _) in log if ls == "far"} == {"sensitivity"}


def test_interferer_outlives_a_ten_second_window():
    # SF12 keeps 356 bytes on the air for 12.5 s (past LoRa's 255-byte
    # frame limit, which the channel does not check: its interferer
    # window is what is under test, not the radio).  "b" ties with
    # "a" and is over within a second; when "c" completes on another
    # channel at t = 11.5, a fixed 10 s look-back (what src/ had) forgets
    # "b" and then calls "a" delivered although "b" was lost against it.
    listeners = [("gw", (0.0, 0.0), None)]
    transmissions = [
        (0.0, "a", (500.0, 0.0), 12, 0, 14.0, 352),
        (0.0, "b", (500.0, 0.0), 12, 0, 14.0, 4),
        (11.5, "c", (500.0, 0.0), 7, 1, 14.0, 4),
    ]
    _, production = assert_matches_oracle(listeners, transmissions)
    _, log, _, channel = production
    assert channel.sim.now > 12.0  # "a" really was on the air that long
    assert {sender: verdict for sender, _, verdict, _ in log} == {
        "a": "collision", "b": "collision", "c": "delivered"}


def test_long_frame_remembers_three_generations_of_short_ones():
    # "long" is still on the air when three generations of short SF12
    # frames have come and gone.  Only the first ("tie": same place, same
    # power) is strong enough to cost it the listener; the later two are
    # captured.  Short frames on the other channels keep completing
    # meanwhile, each one a chance to forget "tie" too early.
    listeners = [("gw", (0.0, 0.0), None)]
    transmissions = [
        (0.0, "long", (500.0, 0.0), 12, 0, 14.0, 352),
        (0.1, "tie", (500.0, 0.0), 12, 0, 14.0, 4),
        (4.0, "weak-1", (2500.0, 0.0), 12, 0, 14.0, 4),
        (8.0, "weak-2", (0.0, 2500.0), 12, 0, 14.0, 4),
    ] + [(t, f"other-{i}", (300.0, 300.0), 7, 1 + i % 2, 14.0, 4)
         for i, t in enumerate((1.5, 5.5, 9.5, 11.3, 11.7, 12.1, 20.0))]
    _, production = assert_matches_oracle(listeners, transmissions)
    verdicts = {sender: verdict for sender, _, verdict, _ in production[1]}
    assert verdicts["long"] == "collision"
    assert verdicts["tie"] == "collision"
    assert verdicts["weak-1"] == verdicts["weak-2"] == "collision"
    assert all(verdicts[f"other-{i}"] == "delivered" for i in range(7))
    # ...and once nothing is on the air, nothing but the frame that just
    # ended is remembered.
    assert len(production[3]._history) == 1


def test_half_duplex_suppression_matches():
    # The sender's own radio must not hear itself on either channel.
    listeners = [("self", (0.0, 0.0), "dev-0"), ("other", (100.0, 0.0), None)]
    transmissions = [(0.0, "dev-0", (0.0, 0.0), 7, 0, 14.0, 12)]
    oracle, _ = assert_matches_oracle(listeners, transmissions)
    deliveries, log, _, _ = oracle
    assert [entry[0] for entry in deliveries] == ["other"]
    assert all(ls != "self" for (_, ls, _, _) in log)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hypothesis_search_pins_kernels(data):
    listeners = data.draw(st.lists(
        st.tuples(
            st.sampled_from([f"ls-{i}" for i in range(6)]),
            st.tuples(st.floats(-5000, 5000, allow_nan=False),
                      st.floats(-5000, 5000, allow_nan=False)),
            st.sampled_from([None, "dev-0", "dev-1"]),
            st.booleans(),  # has a receiver
        ),
        min_size=1, max_size=4, unique_by=lambda ls: ls[0]))
    transmissions = data.draw(st.lists(
        st.tuples(
            st.sampled_from(TIME_GRID),
            st.sampled_from(["dev-0", "dev-1", "dev-2"]),
            st.tuples(st.floats(-8000, 8000, allow_nan=False),
                      st.floats(-8000, 8000, allow_nan=False)),
            st.integers(7, 12),
            st.integers(0, len(FREQS) - 1),
            st.floats(2.0, 27.0, allow_nan=False),
            st.integers(4, 24),
        ),
        min_size=2, max_size=6))
    assert_matches_oracle(listeners, transmissions)


def paper_run():
    config = NetworkConfig(num_gateways=5, sensors_per_gateway=30, seed=2026,
                           tracing=True)
    network = BcWANNetwork(config)
    report = network.run(num_exchanges=40)
    return report, network.export_trace(), network


def test_full_paper_run_traces_byte_identical(monkeypatch):
    """Same seed, 5 gateways x 30 sensors: production == oracle end to end."""
    report, trace, net = paper_run()
    monkeypatch.setattr(core_testbed, "RadioChannel", ReferenceRadioChannel)
    oracle_report, oracle_trace, oracle_net = paper_run()
    assert all(isinstance(site.channel, ReferenceRadioChannel)
               for site in oracle_net.sites)
    assert trace == oracle_trace
    assert trace, "trace export must not be empty"
    assert (report.completed, report.failed, report.frames_lost_collision,
            report.frames_lost_sensitivity) == \
           (oracle_report.completed, oracle_report.failed,
            oracle_report.frames_lost_collision,
            oracle_report.frames_lost_sensitivity)
    for site, oracle_site in zip(net.sites, oracle_net.sites):
        assert site.channel.frames_delivered == \
            oracle_site.channel.frames_delivered
        # At 31 listeners a site caches every position that ever
        # transmitted: each row is built once and none is evicted.
        channel = site.channel
        assert 0 < channel.loss_rows_built == len(channel._loss_rows)
        assert channel.loss_row_hits > channel.loss_rows_built
