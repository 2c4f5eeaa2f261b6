"""The SPV sync engine of a light client.

An :class:`SpvClient` is a WAN host that is *not* a daemon: it keeps an
84-byte-per-block :class:`~repro.light.headers.HeaderChain`, registers
watch-list filters (addresses, outpoints, txids) with serving full
nodes, and confirms the transactions it cares about through Merkle
inclusion proofs — never downloading, deserializing, or validating a
block body.

Header requests go through the full node's request layer,
:class:`~repro.p2p.sync.Requests`: a deadline token, reply matching and
per-peer scores.  A failure is a request that expires *or* a proof that
fails strict verification, charged to the peer that sent it.  Silence may
be the WAN's fault, so the client rotates to its next serving peer after
``FAILOVER_THRESHOLD`` consecutive expiries of the serving peer; a forged
proof is proven dishonesty, so one from the serving peer rotates it at
once.  Either way the client replays its whole filter on the new peer
(from height 0 — every push is idempotent downstream, so the replayed
history is harmless).

When a :class:`~repro.light.multicast.MulticastListener` is attached,
the periodic unicast poll stands down while the broadcast stream is
healthy and resumes (as *catch-up*) on missed windows, digest breaks, or
bundle gaps — the Danzi et al. recovery path.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.blockchain.block import BlockHeader
from repro.blockchain.merkle import verify_proof
from repro.blockchain.transaction import OutPoint, Transaction
from repro.errors import ValidationError
from repro.light.headers import HeaderChain
from repro.light.messages import (
    FilterMatchMessage,
    GetHeaderRangeMessage,
    GetTxProofMessage,
    HeaderBundleMessage,
    HeaderRangeMessage,
    RegisterFilterMessage,
    TxProofMessage,
)
from repro.light.multicast import MulticastListener
from repro.obs.registry import Counted, attrs
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.p2p.message import Envelope
from repro.p2p.sync import Requests
from repro.sim.core import Simulator

__all__ = ["SpvClient"]

_MAX_STASHED_PROOFS = 128
# The client's one request in flight is always a header request.
_HEADERS = "headers"


class SpvClient(Counted):
    """Header-first chain tracking plus watch-list proofs for one host."""

    # Seconds before an unanswered request counts against its peer, and
    # how many consecutive failures move the client to the next peer.
    REQUEST_TIMEOUT = 5.0
    FAILOVER_THRESHOLD = 2
    # Headers asked for per request.
    BATCH = 64
    COUNTERS = attrs(
        "sync_rounds", "rounds_skipped", "sync_timeouts", "failovers",
        "catchups", "headers_synced", "headers_from_multicast",
        "proofs_verified", "proofs_rejected", "matches_received")
    GAUGES = {"tip_height": "chain.tip_height"}

    def __init__(self, sim: Simulator, network: Any, name: str,
                 peers: tuple[str, ...],
                 sync_interval: float = 10.0,
                 tracer: Tracer = NULL_TRACER) -> None:
        if not peers:
            raise ValidationError(f"light client {name} needs serving peers")
        self.sim = sim
        self.network = network
        self.name = name
        self.peers = list(peers)
        self.chain = HeaderChain()
        self.sync_interval = sync_interval
        self.tracer = tracer
        # Listener callbacks; agents append.  ``on_match(tx, height)``
        # fires for every watched-filter push, ``on_proof(proof)`` only
        # after strict verification against the header chain, and
        # ``on_tip(height)`` whenever headers connect.
        self.on_match: list[Callable[[Transaction, int], None]] = []
        self.on_proof: list[Callable[[TxProofMessage], None]] = []
        self.on_tip: list[Callable[[int], None]] = []
        # Non-light payloads (the BcWAN delivery handshake) dispatch here.
        self._extra_handlers: dict[type, Callable[[Envelope], None]] = {}
        # The standing filter, kept whole for failover replay.
        self._watch_pubkey_hashes: list[bytes] = []
        self._watch_outpoints: list[tuple[bytes, int]] = []
        self._watch_txids: list[bytes] = []
        # Full transactions received via filter pushes, by txid — the
        # only transaction bodies a light client ever holds.
        self.matched_txs: dict[bytes, Transaction] = {}
        self._verified_proofs: set[tuple[bytes, bytes]] = set()
        # Verified proofs by txid, kept so a proof that outruns its
        # filter push (independent WAN latency per message) can be
        # replayed to on_proof consumers once the match arrives.
        self._proof_by_txid: dict[bytes, TxProofMessage] = {}
        # Proofs waiting for their header, each with the peer it came from.
        self._stashed_proofs: dict[tuple[bytes, bytes],
                                   tuple[TxProofMessage, str]] = {}
        self._serving_index = 0
        self.requests = Requests(sim, network, name, self._on_expire)
        self._round_span: Any = None
        self.multicast: Optional[MulticastListener] = None
        # Every payload type this host ever received — the "no block
        # bodies" acceptance check reads this.
        self.payload_counts: dict[str, int] = {}
        network.register(name, self._handle)
        self._process = sim.process(self._loop())

    # -- identity / peers -------------------------------------------------------

    @property
    def serving_peer(self) -> str:
        return self.peers[self._serving_index]

    def register_handler(self, payload_type: type,
                         handler: Callable[[Envelope], None]) -> None:
        """Route non-light payloads (e.g. DeliveryMessage) to ``handler``."""
        self._extra_handlers[payload_type] = handler

    # -- the watch list ---------------------------------------------------------

    def watch(self, pubkey_hashes: tuple[bytes, ...] = (),
              outpoints: tuple[Any, ...] = (),
              txids: tuple[bytes, ...] = (),
              from_height: int = -1) -> None:
        """Extend the standing filter and register the delta upstream.

        ``from_height >= 0`` asks the server for a historical rescan; the
        resulting (possibly duplicate) pushes are idempotent for every
        consumer in this package.  Outpoints may be ``OutPoint`` objects
        or raw ``(txid, index)`` pairs.
        """
        new_hashes = tuple(h for h in pubkey_hashes
                           if h not in self._watch_pubkey_hashes)
        normalized = []
        for outpoint in outpoints:
            if isinstance(outpoint, OutPoint):
                pair = (outpoint.txid, outpoint.index)
            else:
                pair = (outpoint[0], outpoint[1])
            if pair not in self._watch_outpoints:
                normalized.append(pair)
        new_txids = tuple(t for t in txids if t not in self._watch_txids)
        self._watch_pubkey_hashes.extend(new_hashes)
        self._watch_outpoints.extend(normalized)
        self._watch_txids.extend(new_txids)
        if new_hashes or normalized or new_txids:
            self.network.send(self.name, self.serving_peer,
                              RegisterFilterMessage(
                                  pubkey_hashes=new_hashes,
                                  outpoints=tuple(normalized),
                                  txids=new_txids,
                                  from_height=from_height))

    def request_proof(self, txid: bytes) -> None:
        """Explicitly ask the serving peer for an inclusion proof."""
        self.network.send(self.name, self.serving_peer,
                          GetTxProofMessage(txid=txid))

    def _replay_filter(self, peer: str) -> None:
        if (self._watch_pubkey_hashes or self._watch_outpoints
                or self._watch_txids):
            self.network.send(self.name, peer, RegisterFilterMessage(
                pubkey_hashes=tuple(self._watch_pubkey_hashes),
                outpoints=tuple(self._watch_outpoints),
                txids=tuple(self._watch_txids),
                from_height=0))

    # -- multicast attachment ---------------------------------------------------

    def attach_multicast(self, gateway_pubkey: bytes,
                         interval: float) -> MulticastListener:
        """Listen to a gateway's repeat-authenticate header stream."""
        self.multicast = MulticastListener(
            self.sim, gateway_pubkey, interval,
            apply_headers=self._apply_bundle_headers,
            on_omission=self.catch_up,
        )
        return self.multicast

    def _apply_bundle_headers(self, start_height: int,
                              raw_headers: tuple[bytes, ...]) -> str:
        if start_height > self.chain.tip_height + 1:
            return "gap"
        added, status = self.chain.apply_range(start_height, raw_headers)
        if status != "ok":
            return status
        if added:
            self.headers_from_multicast += added
            self._drain_stashed_proofs()
            self._tip_moved()
        return "ok"

    # -- the periodic poll ------------------------------------------------------

    def _loop(self):
        # Bootstrap immediately: agents need funded wallets and a header
        # tip before the first exchange fires.
        self._begin_round("bootstrap")
        while True:
            yield self.sim.timeout(self.sync_interval)
            if self.requests:
                continue
            # The stream vouches for itself only while rounds keep
            # landing; headers lag at most VERIFY_EVERY rounds behind (the
            # Danzi latency/energy trade), which stashed proofs absorb.
            if self.multicast is not None and self.multicast.streaming:
                self.rounds_skipped += 1
                continue
            self._begin_round("poll")

    def catch_up(self) -> None:
        """Unicast recovery: missed multicast windows, proof gaps."""
        self.catchups += 1
        if not self.requests:
            self._begin_round("catchup")

    def _begin_round(self, reason: str) -> None:
        self.sync_rounds += 1
        self._round_span = self.tracer.span(
            "light.header_sync", host=self.name, reason=reason,
            peer=self.serving_peer, above=self.chain.tip_height)
        self._request_headers(self.chain.tip_height)

    def _end_round(self, status: str) -> None:
        if self._round_span is not None:
            self._round_span.end(status, tip=self.chain.tip_height)
            self._round_span = None

    def _request_headers(self, above: int) -> None:
        self.requests.ask(_HEADERS, self.serving_peer,
                          GetHeaderRangeMessage(above_height=above,
                                                limit=self.BATCH),
                          self.REQUEST_TIMEOUT)

    def _on_expire(self, request: Any) -> None:
        self.sync_timeouts += 1
        self._end_round("timeout")
        if (request.peer == self.serving_peer
                and self.requests.scores[request.peer].consecutive_failures
                >= self.FAILOVER_THRESHOLD):
            self._fail_over()

    def _fail_over(self) -> None:
        """Rotate to the next serving peer and replay the filter there."""
        self._end_round("failover")  # a forged proof may land mid-round
        self.failovers += 1
        self._serving_index = (self._serving_index + 1) % len(self.peers)
        # The new server knows nothing of our filter: replay it whole,
        # with a genesis rescan so no historical match is lost.
        self._replay_filter(self.serving_peer)
        # Retry straight away on the new peer — a light device that
        # just missed its window should not idle a full interval.
        self._begin_round("failover")

    # -- inbound dispatch -------------------------------------------------------

    def _handle(self, envelope: Envelope) -> None:
        payload = envelope.payload
        name = type(payload).__name__
        self.payload_counts[name] = self.payload_counts.get(name, 0) + 1
        if isinstance(payload, HeaderRangeMessage):
            self._on_header_range(envelope)
        elif isinstance(payload, FilterMatchMessage):
            self._on_filter_match(envelope)
        elif isinstance(payload, TxProofMessage):
            self._handle_proof(payload, envelope.source)
        elif isinstance(payload, HeaderBundleMessage):
            if self.multicast is not None:
                self.multicast.receive(payload)
        else:
            handler = self._extra_handlers.get(type(payload))
            if handler is not None:
                handler(envelope)

    def _on_header_range(self, envelope: Envelope) -> None:
        if self.requests.answer(_HEADERS, envelope.source) is None:
            return  # unsolicited or stale
        reply = envelope.payload
        added, status = self.chain.apply_range(reply.start_height,
                                               reply.headers)
        if status == "unanchored":
            # Fork below the window: walk the request back and re-anchor.
            self._request_headers(max(-1, reply.start_height - 1 - self.BATCH))
            return
        if added:
            self.headers_synced += added
            self._drain_stashed_proofs()
            self._tip_moved()
            if envelope.source != self.serving_peer:
                return  # a stashed proof was forged: failed over mid-round
        if reply.tip_height > self.chain.tip_height and reply.headers:
            # Mid-catch-up: keep streaming without waiting an interval.
            self._request_headers(self.chain.tip_height)
            return
        self._end_round("ok")

    def _on_filter_match(self, envelope: Envelope) -> None:
        payload = envelope.payload
        try:
            tx = Transaction.deserialize(payload.tx_bytes)
        except ValidationError:
            self.proofs_rejected += 1
            return
        self.matches_received += 1
        self.matched_txs[tx.txid] = tx
        for listener in self.on_match:
            listener(tx, payload.height)
        proof = self._proof_by_txid.get(tx.txid)
        if proof is not None:
            # The inclusion proof beat this push across the WAN and its
            # listeners had no transaction body to act on — replay it.
            for listener in self.on_proof:
                listener(proof)

    def _tip_moved(self) -> None:
        for listener in self.on_tip:
            listener(self.chain.tip_height)

    def _handle_proof(self, proof: TxProofMessage, peer: str) -> None:
        key = (proof.txid, proof.block_hash)
        if key in self._verified_proofs:
            return
        try:
            header = BlockHeader.deserialize(proof.header_bytes)
        except ValidationError:
            self._reject_proof(peer)
            return
        if header.hash != proof.block_hash:
            self._reject_proof(peer)
            return
        anchored = self.chain.header_at(proof.height)
        if anchored is None or anchored.hash != header.hash:
            # Header chain does not (yet) cover the proof.  A proof that
            # directly extends the tip self-connects; anything further
            # ahead waits for sync.
            if not (proof.height == self.chain.tip_height + 1
                    and self.chain.connect(header) == "connected"):
                self._stash_proof(key, proof, peer)
                return
            self._tip_moved()
        span = self.tracer.span("light.proof_verify", host=self.name,
                                height=proof.height, txs=proof.tx_count)
        if verify_proof(proof.txid, proof.branch, proof.index,
                        proof.tx_count, header.merkle_root):
            self.proofs_verified += 1
            self._verified_proofs.add(key)
            self._proof_by_txid[proof.txid] = proof
            self._stashed_proofs.pop(key, None)
            span.end("ok")
            for listener in self.on_proof:
                listener(proof)
        else:
            span.end("rejected")
            self._reject_proof(peer)

    def _reject_proof(self, peer: str) -> None:
        """A bad proof is proven dishonesty, not silence: it fails the peer
        that sent it, and one from the serving peer rotates the client at
        once, however many header rounds it answered in between."""
        self.proofs_rejected += 1
        self.requests.fail(peer)
        if peer == self.serving_peer:
            self._fail_over()

    def _stash_proof(self, key: tuple[bytes, bytes], proof: TxProofMessage,
                     peer: str) -> None:
        if (key not in self._stashed_proofs
                and len(self._stashed_proofs) >= _MAX_STASHED_PROOFS):
            return  # bounded; sync will re-deliver via re-request
        self._stashed_proofs[key] = (proof, peer)
        self.catch_up()

    def _drain_stashed_proofs(self) -> None:
        if not self._stashed_proofs:
            return
        stashed = list(self._stashed_proofs.values())
        self._stashed_proofs.clear()
        for proof, peer in stashed:
            if proof.height <= self.chain.tip_height + 1:
                self._handle_proof(proof, peer)
            else:
                self._stashed_proofs[(proof.txid, proof.block_hash)] = (
                    proof, peer)
