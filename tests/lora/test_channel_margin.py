"""Squared distances decide, at a margin: the cases built to sit on a bound.

``RadioChannel`` decides both tests on rows of clamped squared distances
``q = max(dx**2 + dy**2, 1)`` (``_squared_row``), with no logarithm: a
frame sent at ``P`` dBm is audible where ``q`` is below the lower of
``_audible_bounds(P, SF)``, and survives the interferers sent at ``P_k``
where the least of their ``q`` over its own is above the higher of
``_capture_bounds(P_k - P)``; where interferers were sent at several
powers, each level's least ``q`` is first divided by its
``_capture_factor`` and the ratio held to ``_MARGIN_FACTORS``.  Between a
pair of bounds (both included) a verdict is within ``_DECISION_MARGIN_DB``
of its threshold and is decided again on exact losses.

The cases here sit on the edges: the exact RSSI (or capture difference) on
its threshold or one ULP below it, where the ``q`` test without the margin
decides wrongly; and ``q`` (or the capture ratio) at each bound and one
ULP either side, for the sensitivity of every spreading factor and for
the capture test at equal and at unequal powers.  Every one must match the
per-listener oracle, logged and unlogged (``assert_matches_oracle``), and
cost exact losses exactly where it lies between its bounds.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lora import channel as channel_module
from repro.lora.channel import (_DB_PER_DECADE, _DECISION_MARGIN_DB,
                                _MARGIN_FACTORS, CAPTURE_THRESHOLD_DB,
                                Listener, PathLossModel, Position,
                                RadioChannel, _audible_bounds,
                                _capture_bounds, _capture_factor,
                                _split, _squared_range, _squared_row)
from repro.lora.frames import DataFrame
from repro.lora.phy import SENSITIVITY_DBM, LoRaModulation
from repro.sim.core import Simulator
from tests.lora.test_channel_differential import (assert_matches_oracle,
                                                  run_channel)

MODEL = PathLossModel()
ORIGIN = np.zeros(1)
LISTENER = ("gw", (0.0, 0.0), None)
# The listener has no receiver: the only exact losses the unlogged channel
# computes are those of the verdicts it decides again.
SILENT = ("gw", (0.0, 0.0), None, False)
SF = 7
# The sensor and the RX2-downlink power of the deployments (dBm).
POWERS = (14.0, 27.0)


def squared(position: tuple[float, float]) -> float:
    """The channel's ``q`` from ``position`` to the listener at the
    origin."""
    return float(_squared_row(ORIGIN, ORIGIN, Position(*position))[0])


def exact_loss(position: tuple[float, float]) -> float:
    """The oracle's loss from ``position`` to the listener at the origin."""
    return float(MODEL.loss_row_db(np.array([position[0]]),
                                   np.array([position[1]]))[0])


def position_at(q: float) -> tuple[float, float]:
    """A transmitter position whose ``q`` to the origin is ``q`` exactly."""
    x = math.sqrt(q)
    for _ in range(16):
        rest = q - x * x
        if rest >= 0.0:
            y = math.sqrt(rest)
            for candidate in (y, math.nextafter(y, math.inf),
                              math.nextafter(y, -math.inf)):
                if squared((x, candidate)) == q:
                    return x, candidate
        x = math.nextafter(x, -math.inf)
    raise AssertionError(f"no position at a squared distance of {q}")


def solve(predicate, guess: float) -> float:
    """The float nearest ``guess`` (within a few ULPs) that satisfies
    ``predicate``."""
    candidates = [guess]
    up = down = guess
    for _ in range(8):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        candidates += [up, down]
    for candidate in candidates:
        if predicate(candidate):
            return candidate
    raise AssertionError(f"no float near {guess} satisfies the predicate")


def ulps_around(value: float) -> list[float]:
    """``value`` and one ULP either side of it."""
    return [math.nextafter(value, -math.inf), value,
            math.nextafter(value, math.inf)]


def verdicts(oracle) -> dict[str, str]:
    return {sender: verdict for sender, _, verdict, _ in oracle[1]}


def exact_elements(monkeypatch, listeners, transmissions) -> int:
    """Path-loss elements the unlogged channel computes exactly."""
    counted = [0]
    real = PathLossModel.loss_row_db

    def counting(self, dx, dy):
        counted[0] += len(dx)
        return real(self, dx, dy)

    with monkeypatch.context() as patch:
        patch.setattr(PathLossModel, "loss_row_db", counting)
        run_channel(RadioChannel, listeners, transmissions, logged=False)
    return counted[0]


# -- exact values on the threshold --------------------------------------------


@pytest.mark.parametrize("on_threshold", [True, False],
                         ids=["rssi-equal-to-sensitivity", "one-ulp-below"])
def test_rssi_at_the_sensitivity(on_threshold):
    sensitivity = SENSITIVITY_DBM[SF]
    target = (sensitivity if on_threshold
              else math.nextafter(sensitivity, -math.inf))
    # A link whose exact RSSI is the target and which the q test without
    # the margin decides wrongly.
    rng = random.Random(1)
    for _ in range(10_000):
        position = (rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))
        exact = exact_loss(position)
        power = solve(lambda p: p - exact == target, target + exact)
        if (squared(position) <= _squared_range(power, SF)) != on_threshold:
            break
    else:
        raise AssertionError("the q test alone decides every link correctly")
    low, high = _audible_bounds(power, SF)
    assert low <= squared(position) <= high
    oracle, _ = assert_matches_oracle(
        [LISTENER], [(0.0, "dev-0", position, SF, 0, power, 12)])
    assert verdicts(oracle) == {
        "dev-0": "delivered" if on_threshold else "sensitivity"}
    assert oracle[1][0][3] == target


@pytest.mark.parametrize("on_threshold", [True, False],
                         ids=["gap-equal-to-threshold", "one-ulp-below"])
def test_capture_difference_at_the_threshold(on_threshold):
    interferer = (-2900.0, 1100.0)
    power_other = exact_loss(interferer) - 100.0  # audible, at -100 dBm
    level_other = power_other - exact_loss(interferer)
    level = solve(lambda r: r - level_other == CAPTURE_THRESHOLD_DB,
                  CAPTURE_THRESHOLD_DB + level_other)
    if not on_threshold:  # the largest wanted level the capture suppresses
        level = math.nextafter(level, -math.inf)
    assert level >= SENSITIVITY_DBM[SF]
    # A wanted link whose exact capture difference sits there and which
    # the ratio test without the margin decides wrongly.
    rng = random.Random(2)
    for _ in range(10_000):
        wanted = (rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0))
        exact = exact_loss(wanted)
        power = solve(lambda p: p - exact == level, level + exact)
        ratio = squared(interferer) / squared(wanted)
        if (ratio >= _capture_factor(power_other - power)) != on_threshold:
            break
    else:
        raise AssertionError("the ratio test alone decides every capture "
                             "correctly")
    exact_gap = (power - exact) - level_other
    assert (exact_gap == CAPTURE_THRESHOLD_DB) == on_threshold
    low, high = _capture_bounds(power_other - power)
    assert low <= ratio <= high
    oracle, _ = assert_matches_oracle(
        [LISTENER], [(0.0, "wanted", wanted, SF, 0, power, 12),
                     (0.0, "other", interferer, SF, 0, power_other, 12)])
    assert verdicts(oracle) == {
        "wanted": "delivered" if on_threshold else "collision",
        "other": "collision"}


# -- the bounds' edges --------------------------------------------------------


def edges(bounds: tuple[float, float]) -> list[float]:
    """Each bound and one ULP either side of it."""
    return ulps_around(bounds[0]) + ulps_around(bounds[1])


# Every threshold the channel splits at: the sensitivity of each
# spreading factor (at both powers), and capture (at every pair of them).
THRESHOLDS = ([(f"sensitivity-sf{sf}", [_audible_bounds(power, sf)
                                        for power in POWERS])
               for sf in sorted(SENSITIVITY_DBM)]
              + [("capture", [_capture_bounds(other - wanted)
                              for wanted in POWERS for other in POWERS])])


@pytest.mark.parametrize("all_bounds", [entry[1] for entry in THRESHOLDS],
                         ids=[entry[0] for entry in THRESHOLDS])
def test_the_split_picks_the_margin_exactly(all_bounds):
    """Sensitivity: ``q < low`` is audible, ``low <= q <= high`` decided
    again; capture: ``ratio > high`` survives, ``low <= ratio <= high``
    decided again."""
    for low, high in all_bounds:
        values = np.array(edges((low, high)) + [low / 2, high * 2])
        audible, near = _split(values < low, values <= high)
        assert near.tolist() == [1, 2, 3, 4]
        assert audible.tolist() == [True] + [False] * 5 + [True, False]
        survives, near = _split(values > high, values >= low)
        assert near.tolist() == [1, 2, 3, 4]
        assert survives.tolist() == [False] * 5 + [True, False, True]
        # Away from the margin nothing is left to decide again.
        far = np.array([low / 2, high * 2])
        assert _split(far < low, far <= high)[1] is None
        assert _split(far > high, far >= low)[1] is None


@pytest.mark.parametrize("edge", range(6))
def test_sensitivity_margin_edges_through_the_channel(monkeypatch, edge):
    power = 14.0
    for sf in sorted(SENSITIVITY_DBM):
        low, high = bounds = _audible_bounds(power, sf)
        q = edges(bounds)[edge]
        transmissions = [(0.0, "dev-0", position_at(q), sf, 0, power, 12)]
        oracle, _ = assert_matches_oracle([SILENT], transmissions)
        # A nanodecibel from the threshold, on either side of it.
        assert verdicts(oracle) == {
            "dev-0": "delivered" if q < _squared_range(power, sf)
            else "sensitivity"}
        assert exact_elements(monkeypatch, [SILENT], transmissions) == \
            (low <= q <= high)


def capture_case(wanted_q: float, wanted_power: float,
                 interferers: list[tuple[float, tuple[float, float]]]):
    """The wanted frame at a squared distance ``wanted_q`` from the
    listener, and ``interferers`` as ``(power, position)``."""
    return ([(0.0, "wanted", position_at(wanted_q), SF, 0, wanted_power, 12)]
            + [(0.0, f"other-{i}", position, SF, 0, power, 12)
               for i, (power, position) in enumerate(interferers)])


@pytest.mark.parametrize("side", [0, 1], ids=["low-edge", "high-edge"])
def test_capture_margin_edges_through_the_channel(monkeypatch, side):
    """One interferer, at the frame's power and at either power apart."""
    for wanted, other in ((14.0, 14.0), (14.0, 27.0), (27.0, 14.0)):
        low, high = bounds = _capture_bounds(other - wanted)
        factor = _capture_factor(other - wanted)
        for ratio in ulps_around(bounds[side]):
            # The wanted frame at 4 m: ``q`` = 16, so ``fl(q_k / 16)`` is
            # exact.
            transmissions = capture_case(
                16.0, wanted, [(other, position_at(16.0 * ratio))])
            oracle, _ = assert_matches_oracle([SILENT], transmissions)
            assert verdicts(oracle) == {
                "wanted": "delivered" if ratio > factor else "collision",
                "other-0": "collision"}
            # Deciding the wanted frame again costs its exact loss and the
            # interferer's, at the one listener.
            assert exact_elements(monkeypatch, [SILENT], transmissions) == \
                2 * (low <= ratio <= high)


def across_levels(ratio: float, factor: float) -> tuple[float, float]:
    """``(q_s, q_k)``: the frame's and an interferer's squared distance
    whose ratio the channel computes as ``ratio`` when the interferer's
    level has the capture factor ``factor``: ``fl(fl(q_k / factor) /
    q_s)``.  Not every quotient is reachable from every ``q_s``, so a few
    are tried."""
    for q_s in (16.0, 20.0, 24.0, 28.0, 18.0, 22.0):
        guess = q_s * ratio * factor
        q_k = guess
        for _ in range(64):
            if q_k / factor / q_s == ratio:
                return q_s, q_k
            q_k = math.nextafter(q_k, math.inf)
        q_k = guess
        for _ in range(64):
            if q_k / factor / q_s == ratio:
                return q_s, q_k
            q_k = math.nextafter(q_k, -math.inf)
    raise AssertionError(f"no squared distances give the ratio {ratio}")


@pytest.mark.parametrize("wanted", POWERS)
def test_capture_margin_edges_across_power_levels(monkeypatch, wanted):
    """Interferers at both powers: the one at 27 dBm at each edge, the one
    at 14 dBm far enough not to matter."""
    low, high = _MARGIN_FACTORS
    factor = _capture_factor(27.0 - wanted)
    for ratio in edges(_MARGIN_FACTORS):
        q_s, q_k = across_levels(ratio, factor)
        transmissions = capture_case(q_s, wanted, [
            (27.0, position_at(q_k)), (14.0, (600.0, 800.0))])
        oracle, _ = assert_matches_oracle([SILENT], transmissions)
        assert verdicts(oracle) == {
            "wanted": "delivered" if ratio > 1.0 else "collision",
            "other-0": "collision", "other-1": "collision"}
        assert exact_elements(monkeypatch, [SILENT], transmissions) == \
            3 * (low <= ratio <= high)


# -- the clamp, the premise and its bound -------------------------------------


def test_squared_distances_clamp_below_one_metre():
    xs, ys = np.array([0.0, 0.3, -0.6, 1.0, 3.0, 2.0]), np.zeros(6)
    ys[1:3], ys[4] = (0.4, 0.8), -4.0
    assert _squared_row(xs, ys, Position(0.0, 0.0)).tolist() == \
        [1.0, 1.0, 1.0, 1.0, 25.0, 4.0]
    # Within a metre the oracle clamps the distance: the loss at 1 m at
    # every listener, both frames equally loud there, so both collide.
    listeners = [("a", (0.3, 0.4), None), ("b", (0.0, -0.5), None),
                 ("far", (0.0, 2.0), None)]
    transmissions = [(0.0, "x", (0.0, 0.0), SF, 0, 14.0, 12),
                     (0.0, "y", (0.1, 0.0), SF, 0, 14.0, 12)]
    oracle, _ = assert_matches_oracle(listeners, transmissions)
    log = oracle[1]
    assert {(listener, verdict) for _, listener, verdict, _ in log} == {
        ("a", "collision"), ("b", "collision"), ("far", "collision")}
    at_one_metre = 14.0 - exact_loss((1.0, 0.0))
    assert [rssi for _, listener, _, rssi in log if listener != "far"] == \
        [at_one_metre] * 4


@given(links=st.lists(st.tuples(st.one_of(st.floats(0.0, 1e7),
                                          st.floats(0.0, 1.5)),
                                st.floats(0.0, 2.0 * math.pi)),
                      min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_fast_rows_stay_far_inside_the_margin(links):
    """Up to 10 000 km, a cached row's ``q`` lies within a thousandth of
    the margin of the squared distance its exact loss stands for."""
    xs = np.array([distance * math.cos(angle) for distance, angle in links])
    ys = np.array([distance * math.sin(angle) for distance, angle in links])
    q = _squared_row(xs, ys, Position(0.0, 0.0))
    exact = MODEL.loss_row_db(-xs, -ys)
    implied = 10.0 ** ((exact - PathLossModel._FAST_OFFSET_DB)
                       / _DB_PER_DECADE)
    gap = np.abs(q / implied - 1.0)
    assert gap.max() <= (_MARGIN_FACTORS[1] - 1.0) / 1000


def one_frame() -> RadioChannel:
    sim = Simulator()
    channel = RadioChannel(sim, random.Random(3))
    channel.add_listener(Listener(name="gw", position=Position(0.0, 0.0),
                                  deliver=lambda frame, rssi: None))
    frame = DataFrame(sender="dev-0", encrypted_message=b"x" * 12, nonce=0)
    sim.call_at(0.0, lambda: channel.transmit(
        "dev-0", Position(300.0, 400.0), frame, LoRaModulation(SF)))
    sim.run()
    return channel


def test_a_fast_row_beyond_the_margin_raises(monkeypatch):
    real = channel_module._squared_row
    one_frame()  # delivered, the premise checked and held

    def off(xs, ys, position):
        # Ten margins' worth of decibels further out.
        return real(xs, ys, position) * 10.0 ** (
            10 * _DECISION_MARGIN_DB / _DB_PER_DECADE)

    monkeypatch.setattr(channel_module, "_squared_row", off)
    with pytest.raises(AssertionError, match="beyond the decision margin"):
        one_frame()
