"""Fast rows decide, at a margin: the cases built to sit on a threshold.

``RadioChannel`` caches path-loss rows built by numpy's ``log10`` of the
squared distance (``PathLossModel.fast_row_db``), which differ from the
exact ``math`` rows in about a fifth of their elements.  A verdict within
``_DECISION_MARGIN_DB`` of its threshold is decided again on exact
values.  The cases here are found by search so that the fast and the
exact loss of a link differ *and* the exact RSSI (or capture difference)
lands exactly on its threshold, or one ULP below it — each a link the
fast row alone decides wrongly.  Every one must match the per-listener
oracle, logged and unlogged (``assert_matches_oracle``).

The margin's own edges are pinned too: the channel picks the verdicts to
decide again with two compares against precomputed bounds
(``_margin_bounds`` / ``_split``), and they must pick exactly the fast
values ``v`` with ``abs(v - threshold) <= _DECISION_MARGIN_DB`` — at
``threshold ± _DECISION_MARGIN_DB`` and one ULP either side, for the
sensitivity and for the capture threshold.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lora.channel import (_CAPTURE_BOUNDS, _DECISION_MARGIN_DB,
                                _SENSITIVITY_BOUNDS, CAPTURE_THRESHOLD_DB,
                                Listener, PathLossModel, Position,
                                RadioChannel, _split)
from repro.lora.frames import DataFrame
from repro.lora.phy import SENSITIVITY_DBM, LoRaModulation
from repro.sim.core import Simulator
from tests.lora.test_channel_differential import (assert_matches_oracle,
                                                  run_channel)

MODEL = PathLossModel()
LISTENER = ("gw", (0.0, 0.0), None)
SF = 7
CAPTURE_DB = CAPTURE_THRESHOLD_DB


def losses(position: tuple[float, float]) -> tuple[float, float]:
    """(fast, exact) loss from ``position`` to the listener at the origin."""
    dx, dy = np.array([position[0]]), np.array([position[1]])
    return float(MODEL.fast_row_db(dx, dy)[0]), float(MODEL.loss_row_db(dx, dy)[0])


def find_link(rng: random.Random, sign: int):
    """A transmitter position whose fast loss minus exact loss has ``sign``."""
    for _ in range(100_000):
        position = (rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))
        fast, exact = losses(position)
        if np.sign(fast - exact) == sign:
            return position, fast, exact
    raise AssertionError(f"no link with fast - exact of sign {sign}")


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


def verdicts(oracle) -> dict[str, str]:
    return {sender: verdict for sender, _, verdict, _ in oracle[1]}


@pytest.mark.parametrize("on_threshold", [True, False],
                         ids=["rssi-equal-to-sensitivity", "one-ulp-below"])
def test_rssi_at_the_sensitivity(on_threshold):
    sensitivity = SENSITIVITY_DBM[SF]
    target = (sensitivity if on_threshold
              else math.nextafter(sensitivity, -math.inf))
    # On the threshold the exact RSSI is audible, so the fast row is wrong
    # where it is the larger loss; one ULP below, where it is the smaller.
    position, fast, exact = find_link(random.Random(1),
                                      1 if on_threshold else -1)
    power = solve(lambda p: p - exact == target, target + exact)
    assert (power - fast >= sensitivity) != (power - exact >= sensitivity), \
        "the fast row alone would decide this link correctly"
    assert abs((power - fast) - sensitivity) <= _DECISION_MARGIN_DB
    oracle, _ = assert_matches_oracle(
        [LISTENER], [(0.0, "dev-0", position, SF, 0, power, 12)])
    assert verdicts(oracle) == {
        "dev-0": "delivered" if on_threshold else "sensitivity"}
    assert oracle[1][0][3] == target


@pytest.mark.parametrize("on_threshold", [True, False],
                         ids=["gap-equal-to-threshold", "one-ulp-below"])
def test_capture_difference_at_the_threshold(on_threshold):
    rng = random.Random(2)
    # The wanted frame's link is off (the sign that makes the fast gap
    # land on the wrong side); the interferer's fast and exact agree.
    wanted, fast_wanted, exact_wanted = find_link(rng,
                                                  1 if on_threshold else -1)
    interferer, fast_other, exact_other = find_link(rng, 0)
    power_other = exact_other - 100.0
    level_other = power_other - exact_other
    level = solve(lambda r: r - level_other == CAPTURE_DB,
                  CAPTURE_DB + level_other)
    if not on_threshold:  # the largest wanted level the capture suppresses
        level = math.nextafter(level, -math.inf)
    power = solve(lambda p: p - exact_wanted == level, level + exact_wanted)
    assert level >= SENSITIVITY_DBM[SF]
    exact_gap = (power - exact_wanted) - level_other
    assert (exact_gap == CAPTURE_DB) == on_threshold
    fast_gap = (power - fast_wanted) - (power_other - fast_other)
    assert (fast_gap < CAPTURE_DB) != (exact_gap < CAPTURE_DB), \
        "the fast row alone would decide this capture correctly"
    assert abs(fast_gap - CAPTURE_DB) <= _DECISION_MARGIN_DB
    oracle, _ = assert_matches_oracle(
        [LISTENER], [(0.0, "wanted", wanted, SF, 0, power, 12),
                     (0.0, "other", interferer, SF, 0, power_other, 12)])
    assert verdicts(oracle) == {
        "wanted": "delivered" if on_threshold else "collision",
        "other": "collision"}


@given(links=st.lists(st.tuples(st.one_of(st.floats(0.0, 1e7),
                                          st.floats(0.0, 1.5)),
                                st.floats(0.0, 2.0 * math.pi)),
                      min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_fast_rows_stay_far_inside_the_margin(links):
    dx = np.array([distance * math.cos(angle) for distance, angle in links])
    dy = np.array([distance * math.sin(angle) for distance, angle in links])
    gaps = np.abs(MODEL.fast_row_db(dx, dy) - MODEL.loss_row_db(dx, dy))
    assert gaps.max() <= _DECISION_MARGIN_DB / 1000


def margin_edges(threshold: float) -> list[float]:
    """``threshold ± _DECISION_MARGIN_DB`` as floats, and one ULP either
    side of each."""
    edges = []
    for edge in (threshold - _DECISION_MARGIN_DB,
                 threshold + _DECISION_MARGIN_DB):
        edges += [math.nextafter(edge, -math.inf), edge,
                  math.nextafter(edge, math.inf)]
    return edges


def near_margin(value: float, threshold: float) -> bool:
    """The margin test the two compares stand for."""
    return abs(value - threshold) <= _DECISION_MARGIN_DB


THRESHOLDS = ([(f"sensitivity-sf{sf}", level, _SENSITIVITY_BOUNDS[sf])
               for sf, level in SENSITIVITY_DBM.items()]
              + [("capture", CAPTURE_THRESHOLD_DB, _CAPTURE_BOUNDS)])


@pytest.mark.parametrize("threshold, bounds",
                         [entry[1:] for entry in THRESHOLDS],
                         ids=[entry[0] for entry in THRESHOLDS])
def test_the_split_picks_the_margin_exactly(threshold, bounds):
    low, high = bounds
    values = margin_edges(threshold) + [
        low, math.nextafter(low, -math.inf), high,
        math.nextafter(high, math.inf), threshold,
        math.nextafter(threshold, -math.inf), threshold - 1.0,
        threshold + 1.0]
    verdict, near = _split(np.array(values), bounds)
    expected_near = [i for i, v in enumerate(values)
                     if near_margin(v, threshold)]
    assert (near.tolist() if near is not None else []) == expected_near
    for i, v in enumerate(values):
        assert verdict[i] == (i not in expected_near and v >= threshold)
    # Away from the margin no value is left to decide again.
    far = np.array([threshold - 1.0, threshold + 1.0])
    verdict, near = _split(far, bounds)
    assert near is None and verdict.tolist() == [False, True]


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


# The listener has no receiver: the only exact values the unlogged
# channel computes are those of the verdicts it decides again.
SILENT = ("gw", (0.0, 0.0), None, False)


@pytest.mark.parametrize("edge", range(6))
def test_sensitivity_margin_edges_through_the_channel(monkeypatch, edge):
    sensitivity = SENSITIVITY_DBM[SF]
    rssi = margin_edges(sensitivity)[edge]
    position = (1500.0, 2000.0)
    fast, _ = losses(position)
    power = rssi + fast
    assert power - fast == rssi  # the channel's fast RSSI is the edge
    transmissions = [(0.0, "dev-0", position, SF, 0, power, 12)]
    oracle, _ = assert_matches_oracle([SILENT], transmissions)
    assert verdicts(oracle) == {
        "dev-0": "delivered" if rssi >= sensitivity else "sensitivity"}
    assert exact_elements(monkeypatch, [SILENT], transmissions) == \
        near_margin(rssi, sensitivity)


def attainable_gaps(edge: float):
    """A wanted and an interferer transmission whose fast capture gap at
    the origin is each of the two gaps the channel can reach nearest
    ``edge``, one on either side of it (with losses of ~130 dB a gap
    moves in steps of ~1.4e-14 dB, so the edge itself is out of reach)."""
    wanted, interferer = (2400.0, 1800.0), (-2900.0, 1100.0)
    fast_wanted, _ = losses(wanted)
    fast_other, _ = losses(interferer)
    power_other = fast_other - 100.0
    level_other = power_other - fast_other

    def gap(power):
        return (power - fast_wanted) - level_other

    power = edge + level_other + fast_wanted
    while gap(power) > edge:
        power = math.nextafter(power, -math.inf)
    while gap(math.nextafter(power, math.inf)) <= edge:
        power = math.nextafter(power, math.inf)
    above = power
    while gap(above) <= edge:
        above = math.nextafter(above, math.inf)
    return [(gap(p), [(0.0, "wanted", wanted, SF, 0, p, 12),
                      (0.0, "other", interferer, SF, 0, power_other, 12)])
            for p in (power, above)]


@pytest.mark.parametrize("side", [-1, 1], ids=["low-edge", "high-edge"])
def test_capture_margin_edges_through_the_channel(monkeypatch, side):
    edge = CAPTURE_DB + side * _DECISION_MARGIN_DB
    gaps = attainable_gaps(edge)
    assert [near_margin(gap, CAPTURE_DB) for gap, _ in gaps] == \
        [side > 0, side < 0]
    for gap, transmissions in gaps:
        oracle, _ = assert_matches_oracle([SILENT], transmissions)
        assert verdicts(oracle) == {
            "wanted": "delivered" if gap >= CAPTURE_DB else "collision",
            "other": "collision"}
        # Deciding the wanted frame again costs its exact RSSI and the
        # interferer's, at the one listener.
        assert exact_elements(monkeypatch, [SILENT], transmissions) == \
            2 * near_margin(gap, CAPTURE_DB)


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
    real = PathLossModel.fast_row_db

    def off(self, dx, dy):
        return real(self, dx, dy) + 10 * _DECISION_MARGIN_DB

    monkeypatch.setattr(PathLossModel, "fast_row_db", off)
    with pytest.raises(AssertionError, match="beyond the decision margin"):
        one_frame()
