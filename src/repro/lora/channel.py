"""The shared radio medium: path loss, sensitivity, and collisions.

A LoRaSim-style model: a transmission reaches a listener if its received
power clears the per-SF sensitivity, and survives interference if every
overlapping same-frequency, same-SF transmission is at least
``CAPTURE_THRESHOLD_DB`` weaker (the LoRa capture effect); otherwise the
frame is lost at that listener.

Delivery is evaluated for all listeners at once when a frame's airtime
ends, on rows of clamped squared distances ``q = max(dx**2 + dy**2, 1)``:
one per transmitter position, kept in a byte-budgeted LRU.  The contract,
pinned by ``tests/lora/test_channel_differential.py`` against the
per-listener loop in ``tests/oracles/channel_reference.py``: every
verdict, every RSSI bit, every counter and the delivery order are the
loop's.

Path loss rises monotonically with ``q`` (it is ``_FAST_OFFSET_DB + 5 *
EXPONENT * log10(q)`` in real numbers), so both tests are decided on
``q`` with no logarithm: a frame sent at ``P`` dBm is audible where ``q``
is at most the squared range ``T(P, SF)`` (:func:`_audible_bounds`), and
survives the interferers sent at ``P_k`` where their least ``q`` is at
least ``c(P_k - P)`` times its own (:func:`_capture_bounds`): the loudest
interferer of one power level is its nearest.  Nothing here computes one
link at a time: the scalar distance and path loss are the oracle's own
functions.  A verdict whose decibel margin to its threshold is within
``_DECISION_MARGIN_DB`` is decided again on exact losses
(:meth:`PathLossModel.loss_row_db`, the loop's, bit for bit), and every
float that leaves the channel — the RSSI handed to a delivered listener
that has a receiver, and every entry of a set ``verdict_log`` — is
computed exactly, on those listeners only.  A listener whose ``deliver``
is ``None`` (a radio nobody reads, such as a sensor that only transmits)
gets its verdict and counts in the counters, and costs no exact RSSI and
no call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.lora.frames import LoRaFrame
from repro.lora.phy import LoRaModulation, SENSITIVITY_DBM
from repro.sim.core import Simulator

__all__ = ["Position", "PathLossModel", "RadioChannel", "Transmission", "Listener"]


class Position(NamedTuple):
    """A planar position in meters.

    A tuple record: hashing and equality are the tuple's, run in C
    (``hash(p) == hash((x, y))``), which matters because every completed
    frame looks its sender's and each interferer's position up in the
    path-loss row cache.
    """

    x: float = 0.0
    y: float = 0.0


class PathLossModel:
    """Log-distance path loss.

    The constants follow the LoRa channel-attenuation measurements of
    Petäjäjärvi et al. (the paper's reference [6]): ~129 dB at 1 km with a
    path-loss exponent of 2.32, giving SF7 a realistic ~2 km range at
    14 dBm.
    """

    REFERENCE_DISTANCE = 1000.0
    REFERENCE_LOSS_DB = 128.95
    EXPONENT = 2.32
    # The loss at 1 m: the constant term of the loss as a function of the
    # squared distance, ``_FAST_OFFSET_DB + 5 * EXPONENT * log10(q)``.
    _FAST_OFFSET_DB = (REFERENCE_LOSS_DB
                       - 10 * EXPONENT * math.log10(REFERENCE_DISTANCE))

    def loss_row_db(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """The loss at distance ``math.hypot(dx[i], dy[i])``, clamped to
        at least 1 m, for every ``i``: ``REFERENCE_LOSS_DB + 10 *
        EXPONENT * log10(distance / REFERENCE_DISTANCE)``.

        Bit for bit the scalar formula of the per-listener oracle
        (``tests/oracles/channel_reference.py``): the same operations in
        the same association order, the transcendentals still
        ``math.hypot`` and ``math.log10`` (mapped at C level, no Python
        frame per element).
        """
        count = len(dx)
        row = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()),
                          dtype=np.float64, count=count)
        np.maximum(row, 1.0, out=row)
        row /= self.REFERENCE_DISTANCE
        row = np.fromiter(map(math.log10, row.tolist()),
                          dtype=np.float64, count=count)
        row *= 10 * self.EXPONENT
        row += self.REFERENCE_LOSS_DB
        return row


def _squared_row(xs: np.ndarray, ys: np.ndarray,
                 position: Position) -> np.ndarray:
    """``max(dx**2 + dy**2, 1)`` from ``position`` to each listener at
    ``(xs[i], ys[i])``: the clamped squared distance in square metres,
    ``fl(fl(dx*dx) + fl(dy*dy))`` as the scalar formula rounds it (a
    square's sign does not matter)."""
    row = xs - position.x
    row *= row
    dy = ys - position.y
    dy *= dy
    row += dy
    np.maximum(row, 1.0, out=row)
    return row


@dataclass(slots=True)
class Transmission:
    """One frame in flight on the medium."""

    sender: str
    frame: LoRaFrame
    modulation: LoRaModulation
    frequency_hz: int
    power_dbm: float
    position: Position
    start: float
    end: float


_END = attrgetter("end")
_NO_INDICES = np.empty(0, dtype=np.intp)


Deliver = Callable[[LoRaFrame, float], None]  # (frame, rssi_dbm)


@dataclass
class Listener:
    """A registered receiver on the medium.

    ``deliver(frame, rssi_dbm)`` receives every frame delivered here; with
    ``deliver=None`` the listener is counted, not delivered to, until
    :meth:`RadioChannel.set_deliver` gives it a receiver.
    """

    name: str
    position: Position
    deliver: Optional[Deliver] = None
    half_duplex_owner: Optional[str] = None  # suppress hearing own radio


# What one channel may hold in cached rows of squared distances (8 bytes per
# listener per transmitter position); the least recently used row goes first.
# At the sizes the deployments use every row fits (31 listeners per paper
# site, 101 per fleet site: room for 4 228 and 1 297 positions), so each is
# built once.  A 1001-listener cell keeps 130, and a small cache is enough
# there because of *when* rows are reused: an interferer's row within the next
# few completions (the working set is the frames on the air or just ended,
# about a dozen at most on the benchmark's cell), a sender's own row ~1000
# rows later, which no cache inside a memory bound catches.  Measured on that
# cell (EXPERIMENTS.md, "One radio kernel, bounded" and "Fast rows decide at a
# margin"): rows built per completion 2.13 / 0.94 / 0.87 / 0.74 / 0.50 at
# 64 KiB / 0.5 / 1 / 2 / 4 MiB.  With rows in decibels (then ~0.02 ms each, by
# ``np.hypot``; a row of squared distances now costs ~0.005 ms, against
# 0.18-0.28 ms for an exact row of losses) frames per second read 7.2-8.5 k at
# 64 KiB and 9-12.5 k from 0.5 to 4 MiB, flat within the run-to-run spread;
# peak RSS 45.0 / 45.4 / 45.9 / 47.0 / 49.0 MB at the five budgets, against a
# bound of 10 %.  1 MiB is the flat part at +2 % over the smallest budget, and
# leaves a cell five times denser still holding twice that working set.
LOSS_ROW_CACHE_BYTES = 1 << 20

# How much louder (dB) a frame must be than every overlapping same-SF,
# same-frequency transmission to survive them (the LoRa capture effect).
CAPTURE_THRESHOLD_DB = 6.0

_DECISION_MARGIN_DB = 1e-9
"""How close to its threshold, in decibels, a verdict taken on squared
distances is decided again exactly.

In real numbers the loss at the float ``q`` is ``F(q) = _FAST_OFFSET_DB +
5 * EXPONENT * log10(q)``, and the two tests compare ``q`` with bounds
that stand for ``F(q) = P - S`` (sensitivity) and ``F(q_k) - F(q_s) =
CAPTURE_THRESHOLD_DB + P_k - P_s`` (capture) moved out by this margin.
For distances up to 10 000 km (``q`` ≤ 1e14) the floats involved are off
by:

- ``q`` against the real squared distance: two squares and a sum, ≤ 1.5
  × 2**-52 relatively, which ``F`` turns into ≤ 1.7e-15 dB;
- the exact loss (:meth:`PathLossModel.loss_row_db`) against the real
  loss: ``hypot`` (one ULP) and the division by the reference distance
  (half) are ≤ 1.5 × 2**-52 relatively, ≤ 1.5e-16 after ``log10``, plus
  one ULP of a value ≤ 4; × ``10 * EXPONENT`` (23.2) and the two
  roundings after it, ≤ 5e-14 dB.  With ``_FAST_OFFSET_DB``'s own two
  roundings (≤ 1.1e-14 dB) an exact loss is within 7e-14 dB of ``F(q)``;
- a bound against its real value.  A relative error ``e`` of a squared
  distance is ``5 * EXPONENT * log10(1 + e)`` ≈ 5.04 ``e`` dB.  The range
  ``T = 10**((P - S - _FAST_OFFSET_DB) / (5 * EXPONENT))``: two
  roundings of values below 256 dB (5.7e-14) and the division's (half an
  ULP of an exponent below 32) put the exponent ≤ 6.7e-15 off, which
  ``10**`` makes ≤ 1.6e-14 relative with its own ULP: 8e-14 dB.  The
  capture factor ``c = 10**((CAPTURE_THRESHOLD_DB + P_k - P_s) / (5 *
  EXPONENT))`` likewise ≤ 8e-14 dB.  Past those, a verdict meets at most
  three roundings of one ULP (1.1e-15 dB each): the margin factor
  ``10**(±margin / (5 * EXPONENT))`` itself, its product with ``T`` or
  ``c`` (with one power level) or ``q_k / c`` (where levels differ), and
  the ratio to ``q_s``.

A sensitivity verdict compares one exact loss with ``P - S``; a capture
verdict two.  So the ``q`` test and the exact test can disagree only
within 2 × 7e-14 + 8e-14 + 3 × 1.1e-15 < 3e-13 dB of the threshold.
1e-9 dB is more than 3 000 times that; measured over 700 rows × 1001
listeners from 1 mm to 10 000 km on numpy 2.4.6, an exact loss is at
most 2.8e-14 dB from ``F(q)`` as numpy computes it.  The channel checks
the premise wherever it computes an exact value anyway, and raises if
the loss of a cached ``q`` is further than this from it.
"""

# ``5 * EXPONENT``: decibels of loss per decade of squared distance.
_DB_PER_DECADE = 5 * PathLossModel.EXPONENT
# The margin as factors on a squared distance or a ratio of two: below
# ``_MARGIN_FACTORS[0]`` times a bound, a value is more than
# ``_DECISION_MARGIN_DB`` below it in decibels; above ``_MARGIN_FACTORS[1]``
# times it, more than that above it.
_MARGIN_FACTORS = (10.0 ** (-_DECISION_MARGIN_DB / _DB_PER_DECADE),
                   10.0 ** (_DECISION_MARGIN_DB / _DB_PER_DECADE))


def _squared_range(power_dbm: float, spreading_factor: int) -> float:
    """``T``: a frame sent at ``power_dbm`` clears the sensitivity ``S`` of
    ``spreading_factor`` where the squared distance is at most ``T``
    (``F(T) = power_dbm - S``)."""
    return 10.0 ** ((power_dbm - SENSITIVITY_DBM[spreading_factor]
                     - PathLossModel._FAST_OFFSET_DB) / _DB_PER_DECADE)


@lru_cache(maxsize=1024)
def _audible_bounds(power_dbm: float,
                    spreading_factor: int) -> tuple[float, float]:
    """``(low, high)`` on the squared distance ``q`` of a frame sent at
    ``power_dbm``: it clears the sensitivity of ``spreading_factor`` below
    ``low``, misses it above ``high``, and between them (both included) it
    is within ``_DECISION_MARGIN_DB`` of it."""
    squared_range = _squared_range(power_dbm, spreading_factor)
    return (squared_range * _MARGIN_FACTORS[0],
            squared_range * _MARGIN_FACTORS[1])


def _capture_factor(delta_db: float) -> float:
    """``c``: a frame survives an interferer sent ``delta_db`` louder than
    itself where the interferer's squared distance is at least ``c`` times
    its own (``F(q_k) - F(q_s) >= CAPTURE_THRESHOLD_DB + delta_db``)."""
    return 10.0 ** ((CAPTURE_THRESHOLD_DB + delta_db) / _DB_PER_DECADE)


@lru_cache(maxsize=1024)
def _capture_bounds(delta_db: float) -> tuple[float, float]:
    """``(low, high)`` on the ratio ``q_k / q_s`` for interferers sent
    ``delta_db`` louder than the frame: it survives them above ``high``,
    is suppressed below ``low``, and between them (both included) it is
    within ``_DECISION_MARGIN_DB`` of the capture threshold."""
    factor = _capture_factor(delta_db)
    return factor * _MARGIN_FACTORS[0], factor * _MARGIN_FACTORS[1]


def _split(sure: np.ndarray, possible: np.ndarray):
    """A verdict from two compares against the margin's bounds: ``sure``
    where the test holds beyond the margin, ``possible`` where it holds or
    is within the margin.  Returns ``sure`` and the indices of the
    verdicts within the margin (``None`` if there are none), left
    ``False`` to be decided again; ``sure`` implies ``possible``, so equal
    popcounts mean no value sits inside the margin."""
    if np.count_nonzero(sure) == np.count_nonzero(possible):
        return sure, None
    return sure, (sure ^ possible).nonzero()[0]


class RadioChannel:
    """The shared medium all radios of one deployment transmit on.

    Set ``verdict_log`` to a list to record, per completion, one
    ``(sender, listener, verdict, rssi_dbm)`` tuple for every listener the
    frame was evaluated at (the sender's own half-duplex radios are
    skipped) — the differential suite compares these with the reference
    loop's.  It costs one exact row per completion: every RSSI it records
    is exact.  Without it, exact RSSIs are computed only for the delivered
    listeners that have a ``deliver`` callback, and only those are called,
    in listener registration order.  ``loss_rows_built`` /
    ``loss_row_hits`` count path-loss row cache misses and hits.  The
    medium draws nothing: ``rng`` is accepted and unused.
    """

    def __init__(self, sim: Simulator, rng: random.Random) -> None:
        self.sim = sim
        self.path_loss = PathLossModel()
        self._listeners: dict[str, Listener] = {}
        self._active: list[Transmission] = []
        self._history: list[Transmission] = []
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_sensitivity = 0
        self.frames_lost_collision = 0
        self.verdict_log: Optional[list] = None
        self.loss_rows_built = 0
        self.loss_row_hits = 0
        # Listener arrays + per-position rows of squared distances, rebuilt
        # whenever the listener set changes.
        self._snapshot_version = -1
        self._listener_version = 0
        self._names: list[str] = []
        self._xs = self._ys = np.empty(0)
        self._delivers: list[Optional[Deliver]] = []
        self._receivers = np.empty(0, dtype=np.intp)  # deliver is not None
        self._owner_indices: dict[str, np.ndarray] = {}
        self._loss_rows: dict[Position, np.ndarray] = {}

    def add_listener(self, listener: Listener) -> None:
        if listener.name in self._listeners:
            raise ConfigurationError(f"duplicate listener: {listener.name}")
        self._listeners[listener.name] = listener
        self._listener_version += 1

    def set_deliver(self, name: str, deliver: Optional[Deliver]) -> None:
        """Hand the frames delivered at listener ``name`` to ``deliver``
        (``None``: count them only) from the next completed frame on.  The
        listener keeps its place, so the delivery order is unchanged."""
        self._listeners[name].deliver = deliver
        if self._snapshot_version == self._listener_version:
            self._delivers[self._names.index(name)] = deliver
            self._index_receivers()

    def transmit(self, sender: str, position: Position, frame: LoRaFrame,
                 modulation: LoRaModulation, frequency_hz: int = 868_100_000,
                 power_dbm: float = 14.0):
        """Put a frame on the air; returns the transmission record.

        Delivery decisions are evaluated when the frame's airtime ends.
        """
        airtime = modulation.time_on_air(frame.wire_size())
        now = self.sim.now
        transmission = Transmission(sender, frame, modulation, frequency_hz,
                                    power_dbm, position, now, now + airtime)
        self._active.append(transmission)
        self.frames_sent += 1
        self.sim.call_at(transmission.end, lambda: self._complete(transmission))
        return transmission

    def _complete(self, transmission: Transmission) -> None:
        active, history = self._active, self._history
        active.remove(transmission)
        history.append(transmission)
        # An ended frame can still overlap only a frame that began before
        # it ended: this one, or one still on the air (the oldest of which
        # is first).  Whatever starts later starts after every end here;
        # the history is rebuilt only when an entry has ended by then.
        start, end = transmission.start, transmission.end
        horizon = start
        if active and active[0].start < horizon:
            horizon = active[0].start
        if min(map(_END, history)) <= horizon:
            self._history = history = [t for t in history if t.end > horizon]

        # The interferers: the frames on the air, then the ended ones,
        # that overlap this one in time on its frequency and spreading
        # factor (orthogonal spreading factors are ignored).
        frequency = transmission.frequency_hz
        spreading_factor = transmission.modulation.spreading_factor
        interferers = [
            other for other in active + history
            if other is not transmission
            and start < other.end and other.start < end
            and other.frequency_hz == frequency
            and other.modulation.spreading_factor == spreading_factor
        ]
        self._deliver(transmission, interferers)

    def _rebuild_snapshot(self) -> None:
        listeners = list(self._listeners.values())
        self._names = [ls.name for ls in listeners]
        self._xs = np.array([ls.position.x for ls in listeners],
                            dtype=np.float64)
        self._ys = np.array([ls.position.y for ls in listeners],
                            dtype=np.float64)
        self._delivers = [ls.deliver for ls in listeners]
        self._index_receivers()
        owners: dict[str, list[int]] = {}
        for i, ls in enumerate(listeners):
            if ls.half_duplex_owner is not None:
                owners.setdefault(ls.half_duplex_owner, []).append(i)
        self._owner_indices = {owner: np.array(indices, dtype=np.intp)
                               for owner, indices in owners.items()}
        self._loss_rows.clear()
        self._snapshot_version = self._listener_version

    def _index_receivers(self) -> None:
        """The indices of the listeners that have a receiver, in order."""
        self._receivers = np.array(
            [i for i, deliver in enumerate(self._delivers)
             if deliver is not None], dtype=np.intp)

    def _loss_row(self, position: Position) -> np.ndarray:
        """The clamped squared distances from ``position`` to every
        listener (:func:`_squared_row`): the row path loss is decided on."""
        rows = self._loss_rows
        row = rows.pop(position, None)
        if row is not None:
            # A hit moves the row last and leaves the cache's size as it
            # was, within the budget.
            self.loss_row_hits += 1
            rows[position] = row  # most recently used last
            return row
        self.loss_rows_built += 1
        row = _squared_row(self._xs, self._ys, position)
        rows[position] = row
        if len(rows) * row.nbytes > LOSS_ROW_CACHE_BYTES:
            del rows[next(iter(rows))]
        return row

    def _deliver(self, transmission: Transmission,
                 interferers: list[Transmission]) -> None:
        if self._snapshot_version != self._listener_version:
            self._rebuild_snapshot()
        count = len(self._names)
        if count == 0:
            return
        sender = transmission.sender
        own_radios = self._owner_indices.get(sender, _NO_INDICES)
        spreading_factor = transmission.modulation.spreading_factor
        power = transmission.power_dbm
        # Squared distances decide; a verdict within the margin of its
        # threshold is decided again on exact losses.
        own_row = self._loss_row(transmission.position)
        low, high = _audible_bounds(power, spreading_factor)
        audible, near = _split(own_row < low, own_row <= high)
        if near is not None:
            audible[near] = (self._exact_rssi(transmission, own_row, near)
                             >= SENSITIVITY_DBM[spreading_factor])
        audible[own_radios] = False
        delivered = audible
        if interferers:
            # A listener is suppressed if any interferer lands within the
            # capture threshold of the wanted signal.  Of the interferers
            # sent at one power, the loudest is the nearest: one minimum
            # per interferer, and one ratio to the frame's own squared
            # distance per power level (no K x L matrix).
            others = [(other, self._loss_row(other.position))
                      for other in interferers]
            least: dict[float, np.ndarray] = {}
            for other, other_row in others:
                nearest = least.get(other.power_dbm)
                # Never in place: the rows are the cache's.
                least[other.power_dbm] = (
                    other_row if nearest is None
                    else np.minimum(nearest, other_row))
            if len(least) == 1:
                (level, nearest), = least.items()
                low, high = _capture_bounds(level - power)
                ratio = nearest / own_row
            else:
                # Levels differ: each level's nearest over its own capture
                # factor, the least of those over the frame's own.
                ratio = None
                for level, nearest in least.items():
                    scaled = nearest / _capture_factor(level - power)
                    ratio = (scaled if ratio is None
                             else np.minimum(ratio, scaled, out=ratio))
                ratio /= own_row
                low, high = _MARGIN_FACTORS
            survives, near = _split(ratio > high, ratio >= low)
            if near is not None:
                wanted = self._exact_rssi(transmission, own_row, near)
                survives[near] = np.logical_and.reduce([
                    wanted - self._exact_rssi(other, other_row, near)
                    >= CAPTURE_THRESHOLD_DB for other, other_row in others])
            delivered = audible & survives
        n_audible = int(np.count_nonzero(audible))
        n_delivered = (n_audible if delivered is audible
                       else int(np.count_nonzero(delivered)))
        # The listeners that are not the sender's own split into
        # (inaudible | suppressed | delivered), so the loss counters follow
        # from two popcounts.
        self.frames_lost_sensitivity += count - len(own_radios) - n_audible
        self.frames_lost_collision += n_audible - n_delivered
        self.frames_delivered += n_delivered
        # Every RSSI that leaves the channel is exact, computed for the
        # listeners it leaves to: every one into a verdict log, and
        # otherwise the delivered listeners that have a receiver.
        log = self.verdict_log
        if log is not None:
            levels = self._exact_rssi(transmission, own_row,
                                      slice(None)).tolist()
            heard = audible.tolist()
            own = set(own_radios.tolist())
            for i, hit in enumerate(delivered.tolist()):
                if i in own:
                    continue
                verdict = ("delivered" if hit
                           else "collision" if heard[i] else "sensitivity")
                log.append((sender, self._names[i], verdict, levels[i]))
        if n_delivered:
            receivers = self._receivers
            at = receivers[delivered[receivers]]
            if at.size:
                frame = transmission.frame
                delivers = self._delivers
                levels = self._exact_rssi(transmission, own_row, at).tolist()
                for i, level in zip(at.tolist(), levels):
                    delivers[i](frame, level)

    def _exact_rssi(self, transmission: Transmission,
                    squared_row: np.ndarray, at) -> np.ndarray:
        """``transmission``'s exact RSSI at the listeners ``at`` (indices or
        a slice), checking the premise of the decision margin on the way:
        there the loss ``_FAST_OFFSET_DB + 5 * EXPONENT * log10(q)`` of its
        cached row ``squared_row`` may differ from the exact losses by no
        more than ``_DECISION_MARGIN_DB``."""
        position = transmission.position
        exact = self.path_loss.loss_row_db(position.x - self._xs[at],
                                           position.y - self._ys[at])
        loss = np.log10(squared_row[at])
        loss *= _DB_PER_DECADE
        loss += PathLossModel._FAST_OFFSET_DB
        gaps = np.abs(exact - loss)
        if (gaps > _DECISION_MARGIN_DB).any():
            raise AssertionError(
                f"a squared-distance row from {position} is {gaps.max()} dB "
                f"off the exact losses, beyond the decision margin "
                f"{_DECISION_MARGIN_DB} dB")
        return transmission.power_dbm - exact
