"""The shared radio medium: path loss, sensitivity, and collisions.

A LoRaSim-style model: a transmission reaches a listener if its received
power clears the per-SF sensitivity, and survives interference if every
overlapping same-frequency, same-SF transmission is at least
``CAPTURE_THRESHOLD_DB`` weaker (the LoRa capture effect); otherwise the
frame is lost at that listener.

Delivery is evaluated for all listeners at once when a frame's airtime
ends: one path-loss row per transmitter position (kept in a byte-budgeted
LRU), one RSSI vector per completion, and one row of the loudest
interferer's level, built per power level as that power minus the
elementwise least loss of the interferers sent at it.  The contract,
pinned by ``tests/lora/test_channel_differential.py`` against the
per-listener loop in ``tests/oracles/channel_reference.py``: every
verdict, every RSSI bit, every counter and the delivery order are the
loop's.

Two row builders keep that contract at numpy speed.  A *fast* row
(:meth:`PathLossModel.fast_row_db`, numpy's ``log10`` of the squared
distance) differs from the loop's ``math`` values in about a fifth of its
elements, by at most one ULP of the result; an *exact* row
(:meth:`PathLossModel.loss_row_db`) is the loop's, bit for bit.  Nothing
here computes one link at a time: the scalar distance and path loss are
the oracle's own functions.  Cached rows are fast, and they decide: a
verdict whose margin to its threshold is within ``_DECISION_MARGIN_DB``
is decided again on exact values, and every float that leaves the
channel — the RSSI handed to a delivered listener that has a receiver,
and every entry of a set ``verdict_log`` — is computed exactly, on those
listeners only.  A listener whose ``deliver`` is ``None`` (a radio
nobody reads, such as a sensor that only transmits) gets its verdict and
counts in the counters, and costs no exact RSSI and no call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
    # The fast row's constant term: the loss at 1 m.
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

    def fast_row_db(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """:meth:`loss_row_db` from the squared distance, by numpy's own
        ``log10``: ``REFERENCE_LOSS_DB + 5 * EXPONENT * log10(max(dx**2 +
        dy**2, 1)) - 10 * EXPONENT * log10(REFERENCE_DISTANCE)``.

        About twenty times faster, and not bit for bit: no ``hypot``, a
        different association and numpy's vector ``log10``, so about one
        element in five differs from :meth:`loss_row_db`'s — by at most one
        ULP of the finished loss (see ``_DECISION_MARGIN_DB``).  Fit for
        deciding at a margin, never for a value that leaves the channel.
        """
        row = dx * dx
        row += dy * dy
        np.maximum(row, 1.0, out=row)
        np.log10(row, out=row)
        row *= 5 * self.EXPONENT
        row += self._FAST_OFFSET_DB
        return row


_DECISION_MARGIN_DB = 1e-9
"""How close to its threshold a fast-row verdict is decided again exactly.

The bound it must clear, for distances up to 10 000 km (a squared
distance ≤ 1e14, a ``log10`` ≤ 14).  Fast row: the squared distance is
off relatively by ≤ 2**-52 (two squares and a sum), which ``log10`` turns
into an absolute gap ≤ 1.1e-16, plus ``log10``'s own rounding (one ULP of
a value ≤ 14: 1.8e-15); × ``5 * EXPONENT`` (11.6) that is ≤ 2.3e-14, and
the multiply, the constant term (``REFERENCE_LOSS_DB`` minus 69.6, two
roundings) and the final add, half an ULP each of values below 256 dB,
bring it to ≤ 7e-14 dB off the real loss.  Exact row: ``hypot`` (one
ULP) and the division by the reference distance (half) are ≤ 1.5 ×
2**-52 relatively, ≤ 1.5e-16 after ``log10``, plus one ULP of a value
≤ 4; × ``10 * EXPONENT`` (23.2) and the two roundings after it,
≤ 5e-14 dB.  So a fast loss is within 1.2e-13 dB of the exact one.
Measured over 700 rows × 1001 listeners from 1 mm to 10 000 km on numpy
2.4.6, the largest gap is 2.8e-14 dB (one ULP at 64-128 dB).  A verdict
compares an RSSI ``power - loss`` with the sensitivity, or the
difference of two RSSIs with the capture threshold, so its fast and
exact operands differ by at most two loss gaps plus three roundings of
values below 512 dB: under 4e-13 dB.  1e-9 dB is more than 10**4 times
the measured loss gap and 2 500 times the derived verdict bound, so
outside it a fast verdict is the exact one.  The channel checks the
premise wherever it computes an exact value anyway, and raises if a fast
element is further than this from it.
"""


def _margin_bounds(threshold: float) -> tuple[float, float]:
    """``(low, high)``: the least float ``low`` with ``low - threshold >=
    -_DECISION_MARGIN_DB`` and the greatest ``high`` with ``high -
    threshold <= _DECISION_MARGIN_DB``.

    A difference of two floats within a factor of two of each other is
    exact, so for every float ``v``, ``low <= v <= high`` holds exactly
    when ``abs(v - threshold) <= _DECISION_MARGIN_DB`` does: the two
    compares of :func:`_split` pick the same elements as that test.
    Rounded to nearest, ``threshold ± margin`` is either that bound or one
    ULP outside it (it is outside at -123 dBm and at 6 dB), hence the
    step.
    """
    margin = _DECISION_MARGIN_DB
    low, high = threshold - margin, threshold + margin
    if low - threshold < -margin:
        low = math.nextafter(low, math.inf)
    if high - threshold > margin:
        high = math.nextafter(high, -math.inf)
    return low, high


def _split(values: np.ndarray, bounds: tuple[float, float]):
    """``values >= threshold`` for the fast ``values``, and the indices of
    those within the decision margin of the threshold (``None`` if there
    are none): the verdicts a fast row may not decide, left ``False``.

    One pass of two compares: ``low`` marks the values not below the
    margin, ``high`` those above it; equal popcounts mean no value sits
    inside it, and ``high`` is the verdict.
    """
    low = values >= bounds[0]
    high = values > bounds[1]
    if np.count_nonzero(low) == np.count_nonzero(high):
        return high, None
    return high, (low ^ high).nonzero()[0]


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


# What one channel may hold in cached path-loss rows (8 bytes per listener
# per transmitter position); the least recently used row goes first.  At
# the sizes the deployments use every row fits (31 listeners per paper site,
# 101 per fleet site: room for 4 228 and 1 297 positions), so each is built
# once.  A 1001-listener cell keeps 130, and a small cache is enough there
# because of *when* rows are reused: an interferer's row within the next few
# completions (the working set is the frames on the air or just ended,
# about a dozen at most on the benchmark's cell), a sender's own row ~1000
# rows later, which no cache inside a memory bound catches.  Measured on that
# cell (EXPERIMENTS.md, "One radio kernel, bounded" and "Fast rows decide
# at a margin"): rows built per completion 2.13 / 0.94 / 0.87 / 0.74 / 0.50
# at 64 KiB / 0.5 / 1 / 2 / 4 MiB.  With fast rows (then ~0.02 ms each, by
# ``np.hypot``; 0.006-0.009 ms from the squared distance since, against
# ~0.2 ms for an exact one) frames per second read 7.2-8.5 k at 64 KiB and
# 9-12.5 k from 0.5 to 4 MiB, flat within the run-to-run spread; peak RSS
# 45.0 / 45.4 / 45.9 / 47.0 / 49.0 MB at the five budgets, against a bound
# of 10 %.  1 MiB is the flat part at +2 % over the smallest budget, and
# leaves a cell five times denser still holding twice that working set.
LOSS_ROW_CACHE_BYTES = 1 << 20

# How much louder (dB) a frame must be than every overlapping same-SF,
# same-frequency transmission to survive them (the LoRa capture effect).
CAPTURE_THRESHOLD_DB = 6.0

# The decision margins of the two thresholds, as :func:`_split` bounds.
_SENSITIVITY_BOUNDS = {sf: _margin_bounds(level)
                       for sf, level in SENSITIVITY_DBM.items()}
_CAPTURE_BOUNDS = _margin_bounds(CAPTURE_THRESHOLD_DB)


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
        # Listener arrays + per-position loss rows, rebuilt whenever the
        # listener set changes.
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
        """The fast path loss from ``position`` to every listener."""
        rows = self._loss_rows
        row = rows.pop(position, None)
        if row is not None:
            # A hit moves the row last and leaves the cache's size as it
            # was, within the budget.
            self.loss_row_hits += 1
            rows[position] = row  # most recently used last
            return row
        self.loss_rows_built += 1
        row = self.path_loss.fast_row_db(position.x - self._xs,
                                         position.y - self._ys)
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
        # Fast rows decide; a verdict within the margin of its
        # threshold is decided again on exact values.
        own_row = self._loss_row(transmission.position)
        rssi = transmission.power_dbm - own_row
        audible, near = _split(rssi, _SENSITIVITY_BOUNDS[spreading_factor])
        if near is not None:
            audible[near] = (self._exact_rssi(transmission, own_row, near)
                             >= SENSITIVITY_DBM[spreading_factor])
        audible[own_radios] = False
        delivered = audible
        if interferers:
            # A listener is suppressed if any interferer lands within the
            # capture threshold of the wanted signal, i.e. if the loudest
            # one does (float subtraction is monotone, so this is the
            # loop's test exactly).  For one power P, fl(P - x) falls as x
            # grows, so the loudest of the interferers sent at P is P
            # minus their least loss, bit for bit: one minimum per
            # interferer and one subtraction per power (no K x L matrix).
            others = [(other, self._loss_row(other.position))
                      for other in interferers]
            least: dict[float, np.ndarray] = {}
            for other, other_row in others:
                quietest = least.get(other.power_dbm)
                # Never in place: the rows are the cache's.
                least[other.power_dbm] = (
                    other_row if quietest is None
                    else np.minimum(quietest, other_row))
            loudest = None
            for power, quietest in least.items():
                level = power - quietest
                loudest = (level if loudest is None
                           else np.maximum(loudest, level, out=loudest))
            survives, near = _split(np.subtract(rssi, loudest, out=loudest),
                                    _CAPTURE_BOUNDS)
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

    def _exact_rssi(self, transmission: Transmission, fast_row: np.ndarray,
                    at) -> np.ndarray:
        """``transmission``'s exact RSSI at the listeners ``at`` (indices or
        a slice), checking the premise of the decision margin on the way:
        ``fast_row`` — its cached row — may differ from the exact losses
        there by no more than ``_DECISION_MARGIN_DB``."""
        position = transmission.position
        exact = self.path_loss.loss_row_db(position.x - self._xs[at],
                                           position.y - self._ys[at])
        gaps = np.abs(exact - fast_row[at])
        if (gaps > _DECISION_MARGIN_DB).any():
            raise AssertionError(
                f"a fast path-loss row from {position} is {gaps.max()} dB "
                f"off the exact one, beyond the decision margin "
                f"{_DECISION_MARGIN_DB} dB")
        return transmission.power_dbm - exact

