"""Every reading the benchmark harness takes off the program still exists.

``bench/workloads.py`` (frozen) reads counters straight off live objects
after each run: the script cache of every engine, the daemons' served
jobs, the light tier's ``stats()`` views, the WAN's message and byte
counters, the simulator's event count and the radio channels' frame
verdicts.  A renamed field fails the benchmark only, long after tier-1
went green; this takes the same reads, the same way, on a smoke-sized
light deployment (the ``light_fig5`` configuration), on a ledger chain
and on a small radio cell (the ``radio_cell`` shape), so a rename fails
here instead.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.blockchain import Chain, ChainParams, FullNode, Miner, Wallet
from repro.core import BcWANNetwork, NetworkConfig
from repro.core.config import LightConfig
from repro.crypto.keys import KeyPair
from repro.lora import DataFrame, LoRaRadio, Position, RadioChannel
from repro.sim.core import Simulator

FRAME_COUNTERS = ("frames_sent", "frames_delivered",
                  "frames_lost_collision", "frames_lost_sensitivity")


@pytest.fixture(scope="module")
def light():
    network = BcWANNetwork(NetworkConfig(
        seed=11, num_gateways=2, sensors_per_gateway=3,
        light=LightConfig(device_class="light", compact_blocks=True,
                          multicast_interval=15.0, light_sync_interval=30.0)))
    network.run(num_exchanges=12)
    return network


def _count(value) -> int:
    assert isinstance(value, int) and not isinstance(value, bool), value
    return value


def test_light_deployment_readings(light):
    daemons = list(light.all_daemons().values())
    assert sum(_count(d.node.engine.cache_stats.hits) for d in daemons)
    assert sum(_count(d.node.engine.cache_stats.misses) for d in daemons)
    assert sum(_count(d.stats.jobs_served) for d in daemons)
    assert sum(_count(client.stats()["proofs_verified"])
               for client in light.light_clients)
    assert sum(_count(relay.stats()["compact_received"])
               for relay in light.compact_relays)
    assert sum(_count(relay.stats()["reconstructed_from_mempool"])
               for relay in light.compact_relays)
    assert sum(_count(m.rounds_sent) for m in light.multicasters)
    listeners = [client.multicast for client in light.light_clients
                 if getattr(client, "multicast", None) is not None]
    assert listeners
    for listener in listeners:
        _count(listener.stats()["rounds_missed"])


def test_light_deployment_sim_side_readings(light):
    wan = light.wan
    wan_bytes, wan_sent, wan_lost = (wan.bytes_modeled, wan.messages_sent,
                                     wan.messages_lost)
    assert _count(wan_bytes) and _count(wan_sent)
    assert _count(wan_lost) <= wan_sent
    bytes_by_type = dict(wan.bytes_by_type)
    assert sum(_count(size) for size in bytes_by_type.values()) == wan_bytes
    assert bytes_by_type.get("CompactBlockMessage", 0) > 0
    assert _count(light.sim.events_processed)
    channels = [site.channel for site in light.sites]
    radio = {key: sum(_count(getattr(channel, key)) for channel in channels)
             for key in FRAME_COUNTERS}
    assert radio["frames_sent"] and radio["frames_delivered"]


def _sensor(sim, radio, rng):
    frame = DataFrame(sender=radio.name, encrypted_message=bytes(64),
                      signature=bytes(64))
    while True:
        yield sim.timeout(rng.expovariate(1.0 / 60.0))
        wait = radio.duty_cycle_wait()
        if wait > 0:
            yield sim.timeout(wait + 1e-6)
        yield from radio.send(frame)


def test_radio_cell_readings():
    sensors = 20
    rng = random.Random(11)
    sim = Simulator()
    channel = RadioChannel(sim, random.Random(rng.getrandbits(64)))
    gateway = LoRaRadio("gateway", channel, position=Position(0.0, 0.0),
                        duty_cycle=0.1)
    heard = []
    gateway.on_receive(lambda frame, rssi: heard.append(frame))
    for index in range(sensors):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(50.0, 4000.0)
        radio = LoRaRadio(f"sensor-{index}", channel, position=Position(
            distance * math.cos(angle), distance * math.sin(angle)))
        sim.process(_sensor(sim, radio, random.Random(rng.getrandbits(64))))
    sim.run(until=120.0)
    sent, delivered, collided, faint = (
        _count(getattr(channel, key)) for key in FRAME_COUNTERS)
    resolved, remainder = divmod(delivered + collided + faint, sensors)
    assert remainder == 0 and 0 < len(heard) <= resolved <= sent
    assert _count(sim.events_processed) > sent


def test_ledger_chain_readings():
    params = ChainParams(coinbase_maturity=1)
    rng = random.Random(11)
    node = FullNode(params, "producer")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for height in range(3):
        miner.mine_and_connect(float(height))
    tx = wallet.create_payment(wallet.pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    miner.mine_and_connect(3.0)
    # The producer's admission ran the script; a fresh verifying chain
    # catching up runs it again.
    assert _count(node.engine.cache_stats.misses) == len(tx.inputs)
    _count(node.engine.cache_stats.hits)
    validator = Chain(params, verify_scripts=True)
    blocks = [block for _height, block in node.chain.iter_active_blocks(1)]
    assert all(r.status == "active" for r in validator.add_blocks(blocks))
    assert _count(validator.engine.cache_stats.misses) == len(tx.inputs)
    assert _count(validator.engine.cache_stats.hits) == 0
