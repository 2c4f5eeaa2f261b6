"""Radio medium: path loss, collisions, capture; and the radio facade."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lora.channel import (
    Listener,
    PathLossModel,
    Position,
    RadioChannel,
)
from repro.lora.device import (
    EU868_DOWNLINK_CHANNEL,
    EU868_UPLINK_CHANNELS,
    LoRaRadio,
)
from repro.lora.frames import DataFrame, KeyRequestFrame, KeyResponseFrame
from repro.lora.phy import MAX_PAYLOAD_BYTES, LoRaModulation
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from tests.oracles.channel_reference import distance


def data_frame(sender="n", nonce=1):
    return DataFrame(sender=sender, encrypted_message=b"\x00" * 64,
                     signature=b"\x01" * 64, recipient_address="@R",
                     nonce=nonce)


def make_channel(seed=0):
    sim = Simulator()
    rng = RngRegistry(seed).stream("radio")
    return sim, RadioChannel(sim, rng)


# -- positions & path loss --------------------------------------------------------

def loss_row(*distances):
    """``loss_row_db`` at each distance along the x axis."""
    return PathLossModel().loss_row_db(np.array(distances, dtype=float),
                                       np.zeros(len(distances))).tolist()


def test_distance():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_path_loss_increases_with_distance():
    near, reference, far = loss_row(100, 1000, 5000)
    assert near < reference < far


def test_path_loss_reference_point():
    assert loss_row(1000) == [pytest.approx(128.95)]


def test_path_loss_clamps_tiny_distance():
    at_zero, at_one = loss_row(0.0, 1.0)
    assert at_zero == at_one


# -- delivery ---------------------------------------------------------------------

def test_delivery_in_range():
    sim, channel = make_channel()
    gw = LoRaRadio("gw", channel, position=Position(0, 0))
    node = LoRaRadio("n", channel, position=Position(500, 0))
    received = []
    gw.on_receive(lambda frame, rssi: received.append((frame, rssi)))
    sim.process(node.send(data_frame()))
    sim.run()
    assert len(received) == 1
    assert received[0][0].sender == "n"


def test_no_delivery_out_of_range():
    sim, channel = make_channel()
    gw = LoRaRadio("gw", channel, position=Position(0, 0))
    node = LoRaRadio("n", channel, position=Position(50_000, 0))
    received = []
    gw.on_receive(lambda frame, rssi: received.append(frame))
    sim.process(node.send(data_frame()))
    sim.run()
    assert received == []
    assert channel.frames_lost_sensitivity >= 1


def test_sender_does_not_hear_itself():
    sim, channel = make_channel()
    node = LoRaRadio("n", channel, position=Position(0, 0))
    received = []
    node.on_receive(lambda frame, rssi: received.append(frame))
    sim.process(node.send(data_frame()))
    sim.run()
    assert received == []


def test_higher_sf_reaches_farther():
    def reaches(sf, distance):
        sim, channel = make_channel()
        modulation = LoRaModulation(spreading_factor=sf)
        gw = LoRaRadio("gw", channel, position=Position(0, 0),
                       modulation=modulation)
        node = LoRaRadio("n", channel, position=Position(distance, 0),
                         modulation=modulation)
        received = []
        gw.on_receive(lambda frame, rssi: received.append(frame))
        sim.process(node.send(data_frame()))
        sim.run()
        return bool(received)

    # Pick a distance where SF7 fails but SF12 succeeds.
    assert not reaches(7, 6000)
    assert reaches(12, 6000)


# -- collisions ---------------------------------------------------------------------

def two_node_collision(freq_a, freq_b, sf_a=7, sf_b=7, pos_b=(0, 500)):
    sim, channel = make_channel()
    gw = LoRaRadio("gw", channel, position=Position(0, 0))
    a = LoRaRadio("a", channel, position=Position(500, 0),
                  modulation=LoRaModulation(spreading_factor=sf_a),
                  frequencies=(freq_a,))
    b = LoRaRadio("b", channel, position=Position(*pos_b),
                  modulation=LoRaModulation(spreading_factor=sf_b),
                  frequencies=(freq_b,))
    received = []
    gw.on_receive(lambda frame, rssi: received.append(frame.sender))
    sim.process(a.send(data_frame("a", 1)))
    sim.process(b.send(data_frame("b", 2)))
    sim.run()
    return received


def test_same_channel_same_sf_collides():
    received = two_node_collision(868_100_000, 868_100_000)
    assert received == []


def test_different_channels_no_collision():
    received = two_node_collision(868_100_000, 868_300_000)
    assert sorted(received) == ["a", "b"]


def test_orthogonal_sf_no_collision():
    received = two_node_collision(868_100_000, 868_100_000, sf_a=7, sf_b=8)
    assert sorted(received) == ["a", "b"]


def test_capture_effect_near_wins():
    """A much closer transmitter survives a collision (capture)."""
    received = two_node_collision(868_100_000, 868_100_000,
                                  pos_b=(0, 1900))
    # 'a' at 500 m is ~13 dB stronger than 'b' at 1900 m: capture.
    assert received == ["a"]


def test_non_overlapping_frames_both_arrive():
    sim, channel = make_channel()
    gw = LoRaRadio("gw", channel, position=Position(0, 0))
    a = LoRaRadio("a", channel, position=Position(500, 0))
    b = LoRaRadio("b", channel, position=Position(0, 500))
    received = []
    gw.on_receive(lambda frame, rssi: received.append(frame.sender))

    def sequenced():
        yield from a.send(data_frame("a", 1))
        yield from b.send(data_frame("b", 2))

    sim.process(sequenced())
    sim.run()
    assert sorted(received) == ["a", "b"]


# -- radios nobody reads --------------------------------------------------------------

def count_exact_elements(monkeypatch) -> list[int]:
    """Count the elements that pass through the exact path-loss builder."""
    counted = [0]
    real = PathLossModel.loss_row_db

    def loss_row_db(self, dx, dy):
        counted[0] += len(dx)
        return real(self, dx, dy)

    monkeypatch.setattr(PathLossModel, "loss_row_db", loss_row_db)
    return counted


def test_radio_without_handler_is_counted_not_delivered(monkeypatch):
    exact_elements = count_exact_elements(monkeypatch)
    sim, channel = make_channel()
    LoRaRadio("gw", channel, position=Position(0, 0))
    peer = LoRaRadio("peer", channel, position=Position(0, 100))
    node = LoRaRadio("n", channel, position=Position(500, 0))
    received = []
    peer.on_receive(lambda frame, rssi: received.append(rssi))
    sim.process(node.send(data_frame()))
    sim.run()
    assert channel.frames_delivered == 2  # at "gw" and at "peer"
    assert len(received) == 1
    # One exact element: the peer's RSSI.  None for "gw".
    assert exact_elements[0] == 1


def sensor_cell(silent_handler: bool, sensors: int = 40,
                seconds: float = 120.0):
    """A gateway that receives and ``sensors`` radios that only send, each
    about once a minute; with ``silent_handler`` every sensor also has a
    handler that does nothing."""
    sim, channel = make_channel(seed=5)
    heard = []
    gateway = LoRaRadio("gateway", channel, position=Position(0, 0))
    gateway.on_receive(lambda frame, rssi: heard.append((frame.nonce, rssi)))
    rng = random.Random(17)

    def sensor(radio, gaps):
        for nonce in range(1000):
            yield sim.timeout(gaps.expovariate(1.0 / 60.0))
            wait = radio.duty_cycle_wait()
            if wait > 0:
                yield sim.timeout(wait + 1e-6)
            yield from radio.send(data_frame(radio.name, nonce))

    for index in range(sensors):
        radio = LoRaRadio(f"s-{index}", channel, position=Position(
            rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)))
        if silent_handler:
            radio.on_receive(lambda frame, rssi: None)
        sim.process(sensor(radio, random.Random(rng.getrandbits(64))))
    sim.run(until=seconds)
    return channel, heard


def test_counters_identical_to_a_twin_whose_sensors_have_handlers():
    channel, heard = sensor_cell(silent_handler=False)
    twin, twin_heard = sensor_cell(silent_handler=True)
    counters = (channel.frames_sent, channel.frames_delivered,
                channel.frames_lost_sensitivity, channel.frames_lost_collision)
    assert counters == (twin.frames_sent, twin.frames_delivered,
                        twin.frames_lost_sensitivity,
                        twin.frames_lost_collision)
    assert heard == twin_heard
    # Sensors heard each other: there were deliveries that went uncalled.
    assert channel.frames_delivered > 2 * len(heard) > 0


def test_handler_attached_mid_run_receives_from_the_next_frame():
    sim, channel = make_channel()
    gw = LoRaRadio("gw", channel, position=Position(0, 0))
    node = LoRaRadio("n", channel, position=Position(500, 0))
    ends, received = [], []

    def three_frames():
        for nonce in (1, 2, 3):
            transmission = yield from node.send(data_frame(nonce=nonce))
            ends.append(transmission.end)

    def attach():
        # The first frame has been delivered (and counted), uncalled.
        assert channel.frames_delivered == 1
        gw.on_receive(lambda frame, rssi: received.append(frame.nonce))

    sim.process(three_frames())
    # After the first frame's end, before the second one's.
    first_end = node.modulation.time_on_air(data_frame().wire_size())
    sim.call_at(first_end * 1.5, attach)
    sim.run()
    assert ends[0] < first_end * 1.5 < ends[1]
    assert received == [2, 3]
    assert channel.frames_delivered == 3


def test_delivery_order_is_registration_order_not_attach_order():
    sim, channel = make_channel()
    radios = [LoRaRadio(f"r-{i}", channel, position=Position(100 * i, 0))
              for i in range(4)]
    node = LoRaRadio("n", channel, position=Position(0, 300))
    received = []

    def handler_for(name):
        return lambda frame, rssi: received.append((frame.nonce, name))

    # r-3 and r-1 before any frame, r-2 between the two frames, r-0 never.
    for index in (3, 1):
        radios[index].on_receive(handler_for(f"r-{index}"))
    sim.call_at(1.0, lambda: radios[2].on_receive(handler_for("r-2")))

    def two_frames():
        yield from node.send(data_frame(nonce=1))
        yield sim.timeout(2.0)
        yield from node.send(data_frame(nonce=2))

    sim.process(two_frames())
    sim.run()
    assert received == [(1, "r-1"), (1, "r-3"),
                        (2, "r-1"), (2, "r-2"), (2, "r-3")]
    assert channel.frames_delivered == 8


# -- the radio facade ---------------------------------------------------------------

def test_duplicate_listener_rejected():
    sim, channel = make_channel()
    LoRaRadio("x", channel)
    with pytest.raises(ConfigurationError):
        LoRaRadio("x", channel)


def test_radio_requires_frequencies():
    sim, channel = make_channel()
    with pytest.raises(ConfigurationError):
        LoRaRadio("x", channel, frequencies=())


def test_send_returns_transmission():
    sim, channel = make_channel()
    node = LoRaRadio("n", channel)
    outcome = []

    def run():
        transmission = yield from node.send(data_frame())
        outcome.append(transmission)

    sim.process(run())
    sim.run()
    assert len(outcome) == 1
    assert outcome[0].end > outcome[0].start
    assert outcome[0].frequency_hz in EU868_UPLINK_CHANNELS


def test_channel_hopping_avoids_duty_wait():
    """Consecutive sends pick different sub-band channels when busy."""
    sim, channel = make_channel()
    node = LoRaRadio("n", channel)
    frequencies = []

    def run():
        for i in range(3):
            transmission = yield from node.send(KeyRequestFrame(
                sender="n", nonce=i))
            frequencies.append(transmission.frequency_hz)

    sim.process(run())
    sim.run()
    assert len(set(frequencies)) == 3  # three sends, three channels
    assert sim.now < 1.0  # no duty wait needed


def test_fourth_send_waits_for_duty_cycle():
    sim, channel = make_channel()
    node = LoRaRadio("n", channel)
    times = []

    def run():
        for i in range(4):
            yield from node.send(KeyRequestFrame(sender="n", nonce=i))
            times.append(sim.now)

    sim.process(run())
    sim.run()
    assert times[3] - times[2] > 1.0  # all three channels were cooling off


def test_send_survives_waking_one_ulp_before_the_duty_boundary():
    """``now + (not_before - now)`` can round to just below ``not_before``;
    the wake-up must still register (radio_cell seed 13 hit this)."""
    now, not_before = 0.25 + 2.0 ** -53, 1.5 + 2.0 ** -52
    assert now + (not_before - now) < not_before  # the float premise
    sim, channel = make_channel()
    frequency = EU868_UPLINK_CHANNELS[0]
    node = LoRaRadio("n", channel, frequencies=(frequency,))
    limiter = node.limiters[frequency]
    limiter._not_before = not_before

    def run():
        yield sim.timeout(now)
        transmission = yield from node.send(data_frame())
        assert transmission.start < not_before  # it did wake early

    sim.process(run())
    sim.run()
    assert limiter.transmissions == 1
    # The off-period counts from the permitted instant, not the wake-up.
    airtime = node.modulation.time_on_air(data_frame().wire_size())
    assert limiter.next_allowed(0.0) == not_before + airtime + (
        airtime / limiter.duty_cycle - airtime)


def test_total_airtime_and_count():
    sim, channel = make_channel()
    node = LoRaRadio("n", channel)

    def run():
        yield from node.send(data_frame())

    sim.process(run())
    sim.run()
    assert node.transmissions == 1
    assert node.total_airtime > 0


def test_send_refuses_a_frame_past_the_lora_payload_before_booking_it():
    sim, channel = make_channel()
    node = LoRaRadio("n", channel)
    largest = DataFrame(sender="n", encrypted_message=bytes(187),
                        signature=bytes(64))
    oversized = DataFrame(sender="n", encrypted_message=bytes(188),
                          signature=bytes(64))
    assert largest.wire_size() == MAX_PAYLOAD_BYTES == 255
    assert oversized.wire_size() == 256
    refused = []

    def run():
        try:
            yield from node.send(oversized)
        except ConfigurationError as error:
            refused.append(str(error))
        # Nothing was booked: no duty cycle spent, the lock free, no frame
        # on the air.
        assert (node.transmissions, node.total_airtime) == (0, 0.0)
        assert not node._tx_lock.locked and channel.frames_sent == 0
        yield from node.send(largest)

    sim.process(run())
    sim.run()
    assert refused == ["DataFrame of 256 bytes exceeds the 255-byte LoRa "
                       "payload"]
    assert node.transmissions == channel.frames_sent == 1


def test_frames_wire_sizes():
    assert data_frame().wire_size() == 132  # the paper's 128 + 4
    assert KeyRequestFrame(sender="n", nonce=1).wire_size() == 12
    response = KeyResponseFrame(sender="gw", target="n",
                                ephemeral_pubkey=b"\x00" * 70, nonce=1)
    assert response.wire_size() == 74


def test_downlink_constant():
    assert EU868_DOWNLINK_CHANNEL == 869_525_000
