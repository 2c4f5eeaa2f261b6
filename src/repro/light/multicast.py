"""Repeat-authenticate chain multicast (Danzi et al.).

A gateway periodically broadcasts a *bundle* of new block headers to its
duty-cycled Class-A listeners.  Every bundle is signed, but its digest
also chains over the previous bundle's digest — so a listener buffers
incoming bundles and verifies only every R-th signature: one ECDSA
verification authenticates all R buffered bundles at once (the paper's
"repeat-authenticate" trade of latency for verification energy).

Listener safety properties:

* a digest-chain break (missed round, tampered digest) discards the
  unverified buffer — nothing unauthenticated ever reaches the header
  chain — and the next bundle is signature-checked immediately to
  re-anchor;
* a failed signature marks the broadcaster dishonest;
* a round that never arrives inside the Class-A listen window counts as
  missed; enough consecutive misses flag *omission* (dishonest or dead
  gateway) and trigger the client's unicast SPV catch-up.

The broadcaster models its downlink as LoRa frames: the bundle is
fragmented, airtime accrues per fragment, and the transmission gates on
the gateway's duty-cycle budget — a backlogged duty cycle pushes the
round past the listen window exactly like a real Class-A miss.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional

from repro.crypto import ecdsa
from repro.crypto.ecdsa import ECDSAError
from repro.crypto.hashing import sha256
from repro.light.messages import HeaderBundleMessage
from repro.lora.device import EU868_DOWNLINK_DUTY_CYCLE
from repro.lora.dutycycle import DutyCycleLimiter
from repro.obs.registry import Counted, attrs
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.core import Simulator

__all__ = ["bundle_digest", "ChainMulticaster", "MulticastListener",
           "GENESIS_DIGEST"]

#: The digest a bundle chain starts from (before any round was sent).
GENESIS_DIGEST = b"\x00" * 32

#: Max LoRaWAN-style application payload per downlink fragment (DR5).
FRAGMENT_BYTES = 222


def bundle_digest(prev_digest: bytes, round_index: int,
                  raw_headers: tuple[bytes, ...]) -> bytes:
    """The chained commitment one multicast round signs."""
    return sha256(prev_digest + struct.pack("<Q", round_index)
                  + b"".join(raw_headers))


def bundle_wire_size(message: HeaderBundleMessage) -> int:
    """Bytes of one bundle on the downlink (pre-fragmentation)."""
    return (16 + 8 * 3 + len(message.prev_digest) + len(message.digest)
            + len(message.signature)
            + sum(len(raw) for raw in message.headers))


class ChainMulticaster(Counted):
    """One gateway's periodic signed header broadcast.

    ``tamper`` is a test hook: called with each outgoing bundle, its
    return value is what actually leaves the radio — the honest digest
    chain advances regardless, so a tampered signature looks exactly
    like a dishonest broadcaster to listeners.
    """

    MAX_HEADERS_PER_ROUND = 16
    COUNTERS = attrs("rounds_sent", "rounds_delayed")

    def __init__(self, sim: Simulator, network: Any, name: str,
                 keypair: Any, chain: Any,
                 subscribers: tuple[str, ...],
                 interval: float, modulation: Any,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.keypair = keypair
        self.chain = chain
        self.subscribers = tuple(subscribers)
        self.interval = interval
        self.modulation = modulation
        self.limiter = DutyCycleLimiter(EU868_DOWNLINK_DUTY_CYCLE)
        self.tracer = tracer
        self.tamper: Optional[Callable[[HeaderBundleMessage],
                                       HeaderBundleMessage]] = None
        self._round = 0
        self._prev_digest = GENESIS_DIGEST
        # Listeners bootstrap their history by unicast SPV sync; the
        # multicast stream only ever carries growth past this point.
        self._next_height = chain.height + 1
        self._process = sim.process(self._loop())

    def _downlink_airtime(self, size: int) -> float:
        airtime = 0.0
        remaining = size
        while remaining > 0:
            fragment = min(remaining, FRAGMENT_BYTES)
            airtime += self.modulation.time_on_air(fragment)
            remaining -= fragment
        return airtime

    def _loop(self):
        while True:
            # Rounds fire on the absolute epoch schedule the listeners'
            # Class-A windows are keyed to — airtime and duty waits must
            # not accumulate into drift that pushes every later round
            # past its window.
            self._round += 1
            target = self._round * self.interval
            delay = target - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            message = self._build_bundle()
            airtime = self._downlink_airtime(bundle_wire_size(message))
            wait = self.limiter.wait_time(self.sim.now)
            if wait > 0:
                # Duty budget exhausted: the round goes out late, and
                # Class-A listeners whose window closes meanwhile will
                # score it as missed.  Deliberate — regulatory silence
                # is indistinguishable from omission at the receiver.
                self.rounds_delayed += 1
                yield self.sim.timeout(wait)
            if airtime > 0:
                self.limiter.register(
                    self.limiter.next_allowed(self.sim.now), airtime)
                yield self.sim.timeout(airtime)
            span = self.tracer.span(
                "multicast.round", host=self.name,
                round=message.round_index, headers=len(message.headers))
            for subscriber in self.subscribers:
                self.network.send(self.name, subscriber, message,
                                  parent=span)
            span.end("ok")
            self.rounds_sent += 1

    def _build_bundle(self) -> HeaderBundleMessage:
        raw_headers = []
        height = self._next_height
        while (height <= self.chain.height
               and len(raw_headers) < self.MAX_HEADERS_PER_ROUND):
            block = self.chain.block_at(height)
            if block is None:
                break
            raw_headers.append(block.header.serialize())
            height += 1
        headers = tuple(raw_headers)
        digest = bundle_digest(self._prev_digest, self._round, headers)
        signature = self.keypair.sign(digest).to_bytes()
        message = HeaderBundleMessage(
            round_index=self._round,
            start_height=self._next_height,
            headers=headers,
            tip_height=self.chain.height,
            prev_digest=self._prev_digest,
            digest=digest,
            signature=signature,
        )
        # The honest chain advances even when the test hook mangles the
        # emitted copy — subsequent bundles stay internally consistent.
        self._prev_digest = digest
        self._next_height += len(headers)
        if self.tamper is not None:
            message = self.tamper(message)
        return message


class MulticastListener(Counted):
    """The Class-A receiver side of the repeat-authenticate stream.

    ``apply_headers(start_height, raw_headers) -> status`` commits
    verified headers to the owner's chain (the SPV client's); it returns
    ``"gap"`` when the bundle starts above the chain tip, in which case
    the listener requests catch-up.  ``on_omission()`` fires after
    ``MISS_THRESHOLD`` consecutive missed/invalid rounds.
    """

    # Seconds a deployed light host keeps its radio open after a round
    # fires, how many consecutive bad rounds mean omission, and the
    # repeat-authenticate period R: one signature check per R bundles.
    LISTEN_WINDOW = 2.0
    MISS_THRESHOLD = 2
    VERIFY_EVERY = 4
    COUNTERS = attrs(
        "bundles_received", "bundles_accepted", "bundles_late",
        "bundles_invalid", "bundles_discarded", "rounds_missed",
        "signatures_verified", "signatures_skipped", "dishonest_bundles",
        "omissions_suspected", "headers_applied")

    def __init__(self, sim: Simulator, gateway_pubkey: bytes,
                 interval: float,
                 apply_headers: Callable[[int, tuple[bytes, ...]], str],
                 on_omission: Callable[[], None]) -> None:
        self.sim = sim
        self.gateway_pubkey = ecdsa.PublicKey.from_bytes(gateway_pubkey)
        self.interval = interval
        self.apply_headers = apply_headers
        self.on_omission = on_omission
        self._buffer: list[HeaderBundleMessage] = []
        self._last_digest = GENESIS_DIGEST
        self._anchored = True
        self._highest_round = 0
        self._consecutive_missed = 0
        self._process = sim.process(self._watchdog())

    @property
    def streaming(self) -> bool:
        """Whether rounds keep landing: one has, and none was missed since."""
        return self._highest_round > 0 and self._consecutive_missed == 0

    # -- receive path ----------------------------------------------------------

    def receive(self, message: HeaderBundleMessage) -> None:
        now = self.sim.now
        deadline = message.round_index * self.interval + self.LISTEN_WINDOW
        self.bundles_received += 1
        if now > deadline:
            # Class-A: the radio only listens inside the round's window;
            # a late bundle was never heard.  The watchdog scores the
            # miss — nothing more to do here.
            self.bundles_late += 1
            return
        if bundle_digest(message.prev_digest, message.round_index,
                         message.headers) != message.digest:
            self.bundles_invalid += 1
            self._note_bad_round()
            return
        self._highest_round = max(self._highest_round, message.round_index)
        self._consecutive_missed = 0
        if self._anchored and message.prev_digest == self._last_digest:
            self._buffer.append(message)
            self._last_digest = message.digest
            if (message.round_index % self.VERIFY_EVERY == 0
                    or len(self._buffer) >= self.VERIFY_EVERY):
                self._verify_and_commit()
            return
        # Chain break (restart, missed round, or divergent prev): the
        # bundle cannot ride an aggregate verification — check its
        # signature on the spot and re-anchor on it.
        if self._check_signature(message):
            self.signatures_verified += 1
            self._buffer = [message]
            self._commit_buffer()
            self._last_digest = message.digest
            self._anchored = True
        else:
            self.dishonest_bundles += 1
            self._note_bad_round()

    def _check_signature(self, message: HeaderBundleMessage) -> bool:
        try:
            signature = ecdsa.Signature.from_bytes(message.signature)
        except ECDSAError:
            return False
        return self.gateway_pubkey.verify(message.digest, signature)

    def _verify_and_commit(self) -> None:
        last = self._buffer[-1]
        if self._check_signature(last):
            # One signature vouches for the whole chained buffer.
            self.signatures_verified += 1
            self.signatures_skipped += len(self._buffer) - 1
            self._commit_buffer()
        else:
            self.dishonest_bundles += 1
            self._drop_buffer()
            self._anchored = False
            self.omissions_suspected += 1
            self.on_omission()

    def _commit_buffer(self) -> None:
        for bundle in self._buffer:
            if not bundle.headers:
                self.bundles_accepted += 1
                continue
            status = self.apply_headers(bundle.start_height, bundle.headers)
            if status == "gap":
                # We are behind the stream (e.g. joined mid-flight):
                # unicast catch-up fills the hole; the stream stays
                # authenticated either way.
                self.on_omission()
            else:
                self.headers_applied += len(bundle.headers)
            self.bundles_accepted += 1
        self._buffer = []

    def _drop_buffer(self) -> None:
        self.bundles_discarded += len(self._buffer)
        self._buffer = []

    def _note_bad_round(self) -> None:
        self._drop_buffer()
        self._anchored = False
        self._consecutive_missed += 1
        if self._consecutive_missed >= self.MISS_THRESHOLD:
            self.omissions_suspected += 1
            self.on_omission()

    # -- the Class-A window clock ---------------------------------------------

    def _watchdog(self):
        round_no = 0
        grace = 0.25
        while True:
            round_no += 1
            target = round_no * self.interval + self.LISTEN_WINDOW + grace
            delay = target - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if self._highest_round < round_no:
                self.rounds_missed += 1
                self._consecutive_missed += 1
                self._drop_buffer()
                self._anchored = False
                if self._consecutive_missed >= self.MISS_THRESHOLD:
                    self.omissions_suspected += 1
                    self.on_omission()
