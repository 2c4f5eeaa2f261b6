"""Repeat-authenticate chain multicast: broadcaster and Class-A listener."""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

from repro.blockchain.block import BlockHeader
from repro.crypto.hashing import double_sha256
from repro.crypto.keys import KeyPair
from repro.light.multicast import (
    GENESIS_DIGEST,
    ChainMulticaster,
    MulticastListener,
    bundle_digest,
)
from repro.sim.core import Simulator

INTERVAL = 10.0
#: A downlink that takes no airtime: the stream's logic without the radio.
NO_AIRTIME = SimpleNamespace(time_on_air=lambda size: 0.0)


class StubChain:
    """A growable header source for the broadcaster."""

    def __init__(self):
        self._blocks = []
        self._prev = b"\x00" * 32

    @property
    def height(self):
        return len(self._blocks) - 1

    def block_at(self, height):
        if 0 <= height < len(self._blocks):
            return self._blocks[height]
        return None

    def grow(self, n):
        for _ in range(n):
            header = BlockHeader(
                prev_hash=self._prev,
                merkle_root=double_sha256(bytes([len(self._blocks) % 250])),
                timestamp=float(len(self._blocks)),
            )
            self._prev = header.hash
            self._blocks.append(SimpleNamespace(header=header))


class StubNetwork:
    """Delivers every send to one listener after a fixed delay."""

    def __init__(self, sim, delay=0.05):
        self.sim = sim
        self.delay = delay
        self.listener = None
        self.sent = []

    def send(self, source, destination, payload, parent=None):
        self.sent.append(payload)
        if self.listener is not None:
            self.sim.call_in(
                self.delay,
                lambda msg=payload: self.listener.receive(msg))


def build(tamper=None, delay=0.05, verify_every=2, deliver=True):
    sim = Simulator()
    rng = random.Random(0xBC)
    keypair = KeyPair.generate(rng)
    chain = StubChain()
    network = StubNetwork(sim, delay=delay)
    mc = ChainMulticaster(sim, network, "gw", keypair, chain, ("light",),
                          INTERVAL, NO_AIRTIME)
    mc.tamper = tamper
    applied = []
    omissions = []

    def apply_headers(start_height, raw_headers):
        applied.append((start_height, len(raw_headers)))
        return "ok"

    listener = MulticastListener(
        sim, keypair.public_key.to_bytes(), INTERVAL,
        apply_headers=apply_headers, on_omission=lambda: omissions.append(1),
    )
    listener.LISTEN_WINDOW = 1.0
    listener.VERIFY_EVERY = verify_every
    if deliver:
        network.listener = listener
    return sim, chain, mc, listener, applied, omissions


# -- the honest stream ---------------------------------------------------------

def test_honest_stream_applies_headers_in_order():
    sim, chain, mc, listener, applied, omissions = build()
    chain.grow(3)
    sim.run(until=6 * INTERVAL + 2)
    chain.grow(2)
    sim.run(until=8 * INTERVAL + 2)
    assert mc.rounds_sent == 8
    assert listener.rounds_missed == 0
    assert listener.bundles_late == 0
    assert listener.headers_applied == 5
    assert not omissions
    # Heights arrive consecutively from 0.
    total = 0
    for start, count in applied:
        assert start == total
        total += count
    assert total == 5


def test_repeat_authenticate_skips_signatures():
    """One verification per R rounds authenticates the whole buffer."""
    sim, chain, mc, listener, _applied, _ = build(verify_every=4)
    chain.grow(2)
    sim.run(until=8 * INTERVAL + 2)
    assert listener.bundles_accepted == 8
    assert listener.signatures_verified == 2
    assert listener.signatures_skipped == 6


def test_digest_chain_links_rounds():
    sim, chain, mc, listener, _applied, _ = build()
    chain.grow(1)
    sim.run(until=3 * INTERVAL + 2)
    first, second, third = mc.network.sent[:3]
    assert first.prev_digest == GENESIS_DIGEST
    assert second.prev_digest == first.digest
    assert third.prev_digest == second.digest
    assert second.digest == bundle_digest(first.digest, 2, second.headers)


# -- dishonesty ----------------------------------------------------------------

def test_tampered_signature_marks_dishonest_and_reanchors():
    state = {"evil": True}

    def tamper(message):
        if state["evil"]:
            return replace(message, signature=b"\x00" * 8)
        return message

    sim, chain, mc, listener, applied, omissions = build(
        tamper=tamper, verify_every=2)
    chain.grow(2)
    sim.run(until=4 * INTERVAL + 2)
    assert listener.dishonest_bundles >= 1
    assert listener.headers_applied == 0  # nothing unauthenticated applied
    assert omissions  # the client was told to fall back to unicast
    state["evil"] = False
    sim.run(until=8 * INTERVAL + 2)
    # Honest rounds re-anchor via an immediate signature check and the
    # buffered history is NOT recovered — only post-recovery headers are
    # (catch-up owns the hole).
    assert listener.bundles_accepted > 0


def test_tampered_digest_is_invalid():
    def tamper(message):
        return replace(message, digest=b"\xff" * 32)

    sim, chain, mc, listener, _applied, omissions = build(tamper=tamper)
    chain.grow(1)
    sim.run(until=3 * INTERVAL + 2)
    assert listener.bundles_invalid == 3
    assert listener.bundles_accepted == 0
    assert omissions


def test_forged_headers_fail_aggregate_verification():
    """Recomputing the digest over forged headers breaks the signature."""
    forged = BlockHeader(prev_hash=b"\x11" * 32,
                         merkle_root=b"\x22" * 32, timestamp=9.0)

    def tamper(message):
        headers = (forged.serialize(),)
        return replace(
            message, headers=headers,
            digest=bundle_digest(message.prev_digest, message.round_index,
                                 headers))

    sim, chain, mc, listener, applied, _ = build(tamper=tamper,
                                                 verify_every=2)
    chain.grow(1)
    sim.run(until=4 * INTERVAL + 2)
    assert listener.dishonest_bundles >= 1
    assert listener.headers_applied == 0


# -- the Class-A window --------------------------------------------------------

def test_late_bundles_are_missed_rounds():
    sim, chain, mc, listener, _applied, omissions = build(delay=5.0)
    chain.grow(1)
    sim.run(until=4 * INTERVAL + 8)
    assert listener.bundles_late == 4
    assert listener.rounds_missed == 4
    assert listener.bundles_accepted == 0
    assert omissions  # >= miss_threshold consecutive misses


def test_silent_gateway_triggers_omission():
    sim, chain, mc, listener, _applied, omissions = build(deliver=False)
    chain.grow(1)
    sim.run(until=3 * INTERVAL + 2)
    assert listener.bundles_received == 0
    assert listener.rounds_missed == 3
    assert len(omissions) >= 1  # fired at MISS_THRESHOLD = 2, then again


def test_gap_bundle_requests_catch_up():
    """A listener that joined mid-stream asks unicast sync for the hole."""
    sim = Simulator()
    rng = random.Random(0xBC)
    keypair = KeyPair.generate(rng)
    chain = StubChain()
    network = StubNetwork(sim)
    mc = ChainMulticaster(sim, network, "gw", keypair, chain, ("light",),
                          INTERVAL, NO_AIRTIME)
    omissions = []

    def apply_headers(start_height, raw_headers):
        return "gap"

    listener = MulticastListener(
        sim, keypair.public_key.to_bytes(), INTERVAL,
        apply_headers=apply_headers, on_omission=lambda: omissions.append(1),
    )
    listener.LISTEN_WINDOW = 1.0
    listener.VERIFY_EVERY = 1
    network.listener = listener
    chain.grow(2)
    sim.run(until=INTERVAL + 2)
    assert listener.bundles_accepted == 1
    assert omissions  # gap -> catch-up, stream stays authenticated


def test_rounds_fire_on_absolute_schedule():
    """Airtime and duty waits must not drift rounds past the window."""
    sim, chain, mc, listener, _applied, _ = build()
    # ~0.3-0.6 s of airtime per round fits the duty budget but would
    # push round N to ~N * (interval + airtime) under relative
    # scheduling — past the Class-A window within a few rounds.
    mc.modulation = SimpleNamespace(time_on_air=lambda size: 0.3)
    chain.grow(1)
    sim.run(until=6 * INTERVAL + 4)
    assert mc.rounds_sent == 6
    assert mc.rounds_delayed == 0
    assert listener.rounds_missed == 0
    assert listener.bundles_late == 0


def test_round_survives_waking_one_ulp_before_the_duty_boundary():
    """``now + (not_before - now)`` can round to just below ``not_before``;
    the delayed round must still register its airtime at the permitted
    instant instead of raising mid-run."""
    now, not_before = 0.25 + 2.0 ** -53, 1.5 + 2.0 ** -52
    assert now + (not_before - now) < not_before  # the float premise
    sim = Simulator()
    keypair = KeyPair.generate(random.Random(0xBC))
    chain = StubChain()
    chain.grow(1)
    network = StubNetwork(sim)
    # The first round fires at 1 * interval = ``now``.
    mc = ChainMulticaster(sim, network, "gw", keypair, chain, ("light",),
                          interval=now,
                          modulation=SimpleNamespace(
                              time_on_air=lambda size: 0.1))
    mc.limiter._not_before = not_before
    sim.run(until=not_before + 0.2)
    assert mc.rounds_delayed >= 1
    assert mc.rounds_sent == mc.limiter.transmissions == 1
    # The off-period counts from the permitted instant, not the wake-up.
    assert mc.limiter.next_allowed(0.0) == not_before + 0.1 + (
        0.1 / mc.limiter.duty_cycle - 0.1)
