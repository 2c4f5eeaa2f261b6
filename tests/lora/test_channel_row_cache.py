"""The path-loss row cache is bounded in bytes and invisible in verdicts.

Counts and bytes, not clocks: how many rows a channel builds, how many it
holds, what it forgets when the listener set changes — and that none of it
shows in what the channel decides (the oracle is
``tests/oracles/channel_reference.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.lora import channel as channel_module
from repro.lora.channel import (LOSS_ROW_CACHE_BYTES, Listener, Position,
                                RadioChannel)
from repro.lora.frames import DataFrame
from repro.lora.phy import LoRaModulation
from repro.sim.core import Simulator
from tests.lora.test_channel_differential import (assert_matches_oracle,
                                                  corpus)
from tests.oracles.channel_reference import (ReferenceRadioChannel,
                                             frame_counters)

SF7 = LoRaModulation(spreading_factor=7)


def build_cell(channel_class, listeners: int, radius: float = 4000.0):
    """A channel with ``listeners`` radios scattered over a square cell,
    each the half-duplex radio of the sender of the same name."""
    rng = random.Random(5)
    sim = Simulator()
    channel = channel_class(sim, random.Random(99))
    heard = [0] * listeners
    positions = []
    for i in range(listeners):
        position = Position(rng.uniform(-radius, radius),
                            rng.uniform(-radius, radius))
        positions.append(position)

        def deliver(frame, rssi, i=i):
            heard[i] += 1

        channel.add_listener(Listener(name=f"r-{i}", position=position,
                                      deliver=deliver,
                                      half_duplex_owner=f"r-{i}"))
    return sim, channel, positions, heard


def send(sim, channel, at: float, sender: str, position: Position,
         nonce: int = 0) -> None:
    frame = DataFrame(sender=sender, encrypted_message=b"x" * 24, nonce=nonce)
    sim.call_at(at, lambda: channel.transmit(sender, position, frame, SF7))


def cached_bytes(channel: RadioChannel) -> int:
    return sum(row.nbytes for row in channel._loss_rows.values())


def test_corpus_verdicts_survive_a_cache_that_always_evicts(monkeypatch):
    # One float: a single listener's channel holds one row, any other none,
    # and every corpus case has at least two transmitter positions.
    monkeypatch.setattr(channel_module, "LOSS_ROW_CACHE_BYTES", 8)
    for listeners, transmissions in corpus():
        _, production = assert_matches_oracle(listeners, transmissions)
        channel = production[3]
        assert cached_bytes(channel) <= 8
        assert channel.loss_rows_built > len(channel._loss_rows), \
            "the case evicted nothing"


def test_cached_rows_stay_inside_the_byte_budget():
    listeners, positions_used = 1001, 1000
    sim, channel, positions, _ = build_cell(RadioChannel, listeners)
    rows_held = []

    def check():
        assert cached_bytes(channel) <= LOSS_ROW_CACHE_BYTES
        rows_held.append(len(channel._loss_rows))

    # Two passes over 1000 positions, a different sender name every time:
    # whatever a channel kept per sender would end up 2000 long.
    for index in range(2 * positions_used):
        send(sim, channel, float(index), f"tx-{index}",
             positions[index % positions_used], nonce=index)
        sim.call_at(index + 0.5, check)
    sim.run()
    assert channel.frames_sent == 2 * positions_used
    capacity = LOSS_ROW_CACHE_BYTES // (8 * listeners)
    assert max(rows_held) == capacity < positions_used
    # Least recently used out first: by the second pass every row is gone
    # again before its position comes round.
    assert channel.loss_rows_built == 2 * positions_used
    assert channel.loss_row_hits == 0
    sized = {name: len(value) for name, value in vars(channel).items()
             if hasattr(value, "__len__")}
    assert sized["_names"] == listeners
    assert all(size <= listeners for size in sized.values()), sized


@pytest.mark.parametrize("listeners", [31, 101])
def test_deployment_sized_cells_build_each_row_once(listeners):
    # The paper's sites have 31 listeners, the fleet's 101: every radio
    # transmits from its own position, three rounds, overlapping.
    sim, channel, positions, _ = build_cell(RadioChannel, listeners)
    rng = random.Random(7)
    for index in range(3 * listeners):
        radio = index % listeners
        send(sim, channel, rng.uniform(0.0, 3.0), f"r-{radio}",
             positions[radio], nonce=index)
    sim.run()
    assert channel.loss_rows_built == len(channel._loss_rows) == listeners
    assert channel.loss_row_hits >= 2 * listeners
    assert channel.frames_lost_collision, "the rounds did not overlap"


def overloaded_cell(channel_class, frames: int = 250):
    """1000 sensors and a gateway on one frequency, past capacity: about
    four frames on the air at any time."""
    sim, channel, positions, heard = build_cell(channel_class, 1001)
    rng = random.Random(11)
    at = 0.0
    for index in range(frames):
        at += rng.expovariate(60.0)
        radio = rng.randrange(1, 1001)
        send(sim, channel, at, f"r-{radio}", positions[radio], nonce=index)
    sim.run()
    return channel, heard


def test_overloaded_cell_builds_at_most_one_row_per_completion():
    channel, heard = overloaded_cell(RadioChannel)
    completions = channel.frames_sent
    lookups = channel.loss_rows_built + channel.loss_row_hits
    assert lookups > 3 * completions  # each frame met several interferers
    assert channel.loss_rows_built <= completions
    assert cached_bytes(channel) <= LOSS_ROW_CACHE_BYTES
    # A cache this much smaller than the sender population decides nothing.
    oracle, oracle_heard = overloaded_cell(ReferenceRadioChannel)
    assert frame_counters(channel) == frame_counters(oracle)
    assert heard == oracle_heard


def listener_churn(channel_class, probe=lambda channel: None):
    """Radios joining between frames: two late listeners, one after each
    of the first two frames.

    Returns the channel counters and, after each of the three frames, what
    every radio (the late ones last) has heard so far and what ``probe``
    says of the channel.
    """
    sim, channel, positions, heard = build_cell(channel_class, 6, radius=300.0)
    heard.extend([0, 0])
    seen = []
    for index, at in enumerate((0.0, 2.0, 4.0)):
        send(sim, channel, at, "r-0", positions[0], nonce=index)
        sim.call_at(at + 1.0,
                    lambda: seen.append((list(heard), probe(channel))))

    def join(index):
        def count(frame, rssi):
            heard[index] += 1

        channel.add_listener(Listener(
            name=f"r-{index}", position=Position(10.0 * index, 10.0),
            deliver=count))

    sim.call_at(1.5, lambda: join(6))
    sim.call_at(3.5, lambda: join(7))
    sim.run()
    return frame_counters(channel), seen


def test_listener_churn_drops_every_cached_row():
    production, seen = listener_churn(RadioChannel, probe=lambda channel: (
        channel.loss_rows_built,
        [len(row) for row in channel._loss_rows.values()]))
    oracle, oracle_seen = listener_churn(ReferenceRadioChannel)
    assert production == oracle
    heard_after = [heard for heard, _ in seen]
    assert heard_after == [heard for heard, _ in oracle_seen]
    assert [heard[6] for heard in heard_after] == [0, 1, 2]
    assert [heard[7] for heard in heard_after] == [0, 0, 1]
    assert [heard[1] for heard in heard_after] == [1, 2, 3]
    # One position, three frames: without churn the row would be built
    # once.  Each change of the listener set costs a rebuild, at the new
    # listener count.
    assert [probed for _, probed in seen] == [(1, [6]), (2, [7]), (3, [8])]
