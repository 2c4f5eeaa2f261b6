"""Anti-entropy synchronization between full nodes.

Flooding gossip is push-only: on a lossy WAN a dropped ``BlockMessage``
or ``TxMessage`` would leave a node permanently behind.  Real Bitcoin-family
daemons recover through headers/inv exchanges on a timer; this module
implements the equivalent, hardened for partitions and churn:

* every ``interval`` seconds a :class:`SyncAgent` probes one peer
  (round-robin over peers that are not backing off) for its tip;
* every request is guarded by a **timeout** (:class:`Requests`, shared
  with the light tier) — a peer that fails to answer is scored, and
  repeat offenders are skipped with **jittered exponential backoff**
  until they answer again;
* a peer that is ahead (or on a different branch at the same height)
  triggers a **header-first catch-up session**: the requester fetches
  header inventories, walks back to the last common block (the fork
  point — essential after a partition in which both sides mined), then
  streams full blocks in pipelined batches until it reaches the peer's
  tip, instead of waiting one poll round per batch;
* mempool contents piggyback as a txid inventory; missing transactions
  are fetched explicitly.

Everything rides the same :class:`~repro.p2p.network.WANetwork` envelopes
as gossip and is processed through the owning daemon, so synchronization
competes for daemon time like any other traffic (and stalls behind block
verification, faithfully).
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.obs.registry import Counted, attrs
from repro.p2p.message import Envelope
from repro.sim.core import Simulator

if TYPE_CHECKING:  # imported lazily to avoid a p2p <-> core import cycle
    from repro.core.daemon import BlockchainDaemon

__all__ = [
    "SyncAgent",
    "PeerScore",
    "Requests",
    "GetTipMessage",
    "TipMessage",
    "GetHeadersMessage",
    "HeadersMessage",
    "GetBlocksMessage",
    "BlocksMessage",
    "GetTxsMessage",
    "TxsMessage",
]


@dataclass(frozen=True)
class GetTipMessage:
    """Requester's view: height plus mempool inventory."""

    height: int
    mempool_txids: tuple[bytes, ...]


@dataclass(frozen=True)
class TipMessage:
    """Responder's tip (the requester decides whether to catch up).

    ``tip_hash`` lets the requester detect a divergent branch even at
    equal height — the split-brain signature a healed partition leaves.
    """

    height: int
    tip_hash: bytes = b""


@dataclass(frozen=True)
class GetHeadersMessage:
    """Fetch ``(height, hash)`` pairs for active heights above ``above_height``."""

    above_height: int
    limit: int


@dataclass(frozen=True)
class HeadersMessage:
    """Active-chain header inventory: ascending ``(height, hash)`` pairs."""

    headers: tuple[tuple[int, bytes], ...]
    tip_height: int


@dataclass(frozen=True)
class GetBlocksMessage:
    """Fetch active blocks with height > ``above_height``."""

    above_height: int


@dataclass(frozen=True)
class BlocksMessage:
    blocks: tuple[Any, ...]  # of repro.blockchain.Block


@dataclass(frozen=True)
class GetTxsMessage:
    txids: tuple[bytes, ...]


@dataclass(frozen=True)
class TxsMessage:
    transactions: tuple[Any, ...]  # of repro.blockchain.Transaction


@dataclass
class PeerScore:
    """Failure bookkeeping for one peer."""

    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    backoff_until: float = 0.0


@dataclass
class _Request:
    """One request in flight: what was asked of whom, and its token."""

    peer: str
    message: Any
    timeout: float
    kind: Any
    retries_left: int
    context: Any
    token: int


class Requests:
    """Every ask-and-wait of one WAN client, and its peers' scores.

    A request in flight is filed under a *key* (a peer, a block hash);
    asking again under a key supersedes it.  A reply counts only from
    the asked peer, of the asked *kind*, while its request is in flight.
    An expired request is asked again while retries are left, else it
    fails its peer; ``on_expire(request)`` runs after every expiry.
    """

    def __init__(self, sim: Simulator, network: Any, sender: str,
                 on_expire: Callable[[_Request], None]) -> None:
        self.sim = sim
        self.network = network
        self.sender = sender
        self.on_expire = on_expire
        self.scores: defaultdict[str, PeerScore] = defaultdict(PeerScore)
        self._in_flight: dict[Hashable, _Request] = {}
        self._tokens = itertools.count(1)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._in_flight

    def __len__(self) -> int:
        return len(self._in_flight)

    def ask(self, key: Hashable, peer: str, message: Any, timeout: float,
            kind: Any = None, retries: int = 0, context: Any = None) -> None:
        """Send ``message`` to ``peer`` and arm its deadline."""
        token = next(self._tokens)
        self._in_flight[key] = _Request(peer, message, timeout, kind,
                                        retries, context, token)
        self.network.send(self.sender, peer, message)
        self.sim.call_in(timeout, lambda: self._expire(key, token))

    def answer(self, key: Hashable, peer: str,
               kind: Any = None) -> Optional[_Request]:
        """The request a reply of ``kind`` from ``peer`` answers, scored
        as a success — or None: the reply is stale or unsolicited."""
        request = self._in_flight.get(key)
        if request is None or request.peer != peer or request.kind != kind:
            return None
        del self._in_flight[key]
        score = self.scores[peer]
        score.successes += 1
        score.consecutive_failures = 0
        return request

    def fail(self, peer: str) -> None:
        """Score one failure — an expiry, or a reply that proved false."""
        score = self.scores[peer]
        score.failures += 1
        score.consecutive_failures += 1

    def clear(self) -> None:
        """Void every request in flight; their deadlines find nothing."""
        self._in_flight.clear()

    def _expire(self, key: Hashable, token: int) -> None:
        request = self._in_flight.get(key)
        if request is None or request.token != token:
            return  # answered, superseded or voided in time
        if request.retries_left:
            self.ask(key, request.peer, request.message, request.timeout,
                     request.kind, request.retries_left - 1, request.context)
        else:
            del self._in_flight[key]
            self.fail(request.peer)
        self.on_expire(request)


@dataclass
class _CatchupSession:
    """State of one header-first catch-up against a single peer."""

    peer: str
    target_height: int
    header_base: int = 0
    next_above: int = 0


class SyncAgent(Counted):
    """Periodic state reconciliation for one daemon.

    :param interval: seconds between tip probes.
    """

    # Responder-side cap per ``BlocksMessage``.
    MAX_BLOCKS_PER_ROUND = 50
    # Seconds before an unanswered request counts as a failure.
    REQUEST_TIMEOUT = 5.0
    # Per-peer backoff: delay = ``interval * BACKOFF_BASE**(failures-1)``,
    # capped at ``BACKOFF_CAP_INTERVALS * interval``, with a relative
    # jitter (+/-) drawn from the agent's own deterministic stream so
    # thundering retries decorrelate without perturbing other randomness.
    BACKOFF_BASE = 2.0
    BACKOFF_CAP_INTERVALS = 8
    BACKOFF_JITTER = 0.2
    # Headers requested per ``GetHeadersMessage`` while walking back to
    # the fork point, and how far below the local tip the walk starts.
    HEADER_WINDOW = 32
    HEADER_OVERLAP = 8
    # Responder-side cap on the txids of one ``GetTxsMessage`` looked up.
    MAX_TXS_PER_REQUEST = 1024
    # Automatic retransmissions of an unanswered catch-up request before
    # the session is abandoned.
    SESSION_RETRIES = 2
    # Counted here only: the registry reads the daemon's ``sync_*``
    # series and the chaos totals off them.
    COUNTERS = attrs(
        "rounds", "skipped_rounds", "blocks_recovered", "txs_recovered",
        "timeouts", "retries", "backoff_resets", "catchup_sessions",
        "batches_received", "headers_received")

    def __init__(self, sim: Simulator, daemon: "BlockchainDaemon",
                 interval: float = 30.0) -> None:
        self.sim = sim
        self.daemon = daemon
        self.interval = interval
        self._peer_cursor = 0
        self._session: Optional[_CatchupSession] = None
        # One request in flight per peer, filed under the peer's name.
        self.requests = Requests(sim, daemon.gossip.network, daemon.name,
                                 self._on_expire)
        # Jitter stream: seeded from the daemon name only, so backoff
        # noise is reproducible and independent of every other stream.
        self._jitter_rng = random.Random(f"sync-agent:{daemon.name}")
        daemon.sync_agent = self
        daemon.register_protocol(GetTipMessage, self._on_get_tip)
        daemon.register_protocol(TipMessage, self._on_tip)
        daemon.register_protocol(GetHeadersMessage, self._on_get_headers)
        daemon.register_protocol(HeadersMessage, self._on_headers)
        daemon.register_protocol(GetBlocksMessage, self._on_get_blocks)
        daemon.register_protocol(BlocksMessage, self._on_blocks)
        daemon.register_protocol(GetTxsMessage, self._on_get_txs)
        daemon.register_protocol(TxsMessage, self._on_txs)
        self._process = sim.process(self._loop())

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop in-flight request state (the owning daemon crashed)."""
        self.requests.clear()
        self._session = None

    # -- the periodic probe -----------------------------------------------------

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self._run_round()

    def _run_round(self) -> None:
        if not self.daemon.online:
            self.skipped_rounds += 1
            return
        peers = self.daemon.gossip.peers
        if not peers:
            return
        peer = self._pick_peer(peers)
        if peer is None:
            self.skipped_rounds += 1
            return
        self.rounds += 1
        node = self.daemon.node
        self.requests.ask(peer, peer, GetTipMessage(
            height=node.height,
            mempool_txids=tuple(tx.txid for tx in node.mempool.transactions()),
        ), self.REQUEST_TIMEOUT, kind="tip")

    def _pick_peer(self, peers: list[str]) -> Optional[str]:
        """Round-robin over peers that are neither backing off nor busy."""
        now = self.sim.now
        for offset in range(len(peers)):
            peer = peers[(self._peer_cursor + offset) % len(peers)]
            if peer in self.requests:
                continue
            if self.requests.scores[peer].backoff_until > now:
                continue
            self._peer_cursor = (self._peer_cursor + offset + 1) % len(peers)
            return peer
        return None

    # -- retry and backoff policy -----------------------------------------------

    def _on_expire(self, request: _Request) -> None:
        self.timeouts += 1
        if request.retries_left:
            self.retries += 1  # the request layer asked again
            return
        score = self.requests.scores[request.peer]
        delay = min(
            self.BACKOFF_CAP_INTERVALS * self.interval,
            self.interval * self.BACKOFF_BASE ** (score.consecutive_failures - 1),
        )
        jitter = 1.0 + self.BACKOFF_JITTER * (2 * self._jitter_rng.random() - 1)
        score.backoff_until = self.sim.now + delay * jitter
        if self._session is not None and self._session.peer == request.peer:
            self._session = None  # abandoned; a later probe restarts it

    def _answered(self, peer: str, kind: str) -> bool:
        """Whether a reply answers the request in flight to ``peer``; a
        peer that answers stops backing off."""
        if self.requests.answer(peer, peer, kind) is None:
            return False
        score = self.requests.scores[peer]
        if score.backoff_until:  # every failure sets it: the peer had failed
            self.backoff_resets += 1
            score.backoff_until = 0.0
        return True

    # -- responder side ------------------------------------------------------------

    def _on_get_tip(self, envelope: Envelope) -> None:
        request = envelope.payload
        node = self.daemon.node
        network = self.daemon.gossip.network
        network.send(self.daemon.name, envelope.source,
                     TipMessage(height=node.height,
                                tip_hash=node.chain.tip.hash))
        # Push any mempool transactions the requester is missing.
        theirs = set(request.mempool_txids)
        missing = [tx for tx in node.mempool.transactions()
                   if tx.txid not in theirs]
        if missing:
            network.send(self.daemon.name, envelope.source,
                         TxsMessage(transactions=tuple(missing)))
        # And fetch what they have that we lack.
        ours = {tx.txid for tx in node.mempool.transactions()}
        wanted = tuple(txid for txid in request.mempool_txids
                       if txid not in ours
                       and not node.chain.confirmations(txid))
        if wanted:
            network.send(self.daemon.name, envelope.source,
                         GetTxsMessage(txids=wanted))

    def _on_get_headers(self, envelope: Envelope) -> None:
        request = envelope.payload
        chain = self.daemon.node.chain
        # A peer picks both numbers: read at most one window, from genesis up.
        top = min(chain.height,
                  request.above_height + min(request.limit,
                                             self.HEADER_WINDOW))
        headers = []
        for height in range(max(0, request.above_height + 1), top + 1):
            block = chain.block_at(height)
            if block is not None:
                headers.append((height, block.hash))
        self.daemon.gossip.network.send(
            self.daemon.name, envelope.source,
            HeadersMessage(headers=tuple(headers), tip_height=chain.height),
        )

    def _on_get_blocks(self, envelope: Envelope) -> None:
        above = envelope.payload.above_height
        chain = self.daemon.node.chain
        blocks = []
        for height in range(above + 1,
                            min(chain.height,
                                above + self.MAX_BLOCKS_PER_ROUND) + 1):
            block = chain.block_at(height)
            if block is not None:
                blocks.append(block)
        if blocks:
            self.daemon.gossip.network.send(
                self.daemon.name, envelope.source,
                BlocksMessage(blocks=tuple(blocks)),
            )

    def _on_get_txs(self, envelope: Envelope) -> None:
        node = self.daemon.node
        found = []
        # A peer picks the list: look up at most one request's worth of it.
        for txid in envelope.payload.txids[:self.MAX_TXS_PER_REQUEST]:
            tx = node.mempool.get(txid)
            if tx is not None:
                found.append(tx)
        if found:
            self.daemon.gossip.network.send(
                self.daemon.name, envelope.source,
                TxsMessage(transactions=tuple(found)),
            )

    # -- requester side ----------------------------------------------------------

    def _on_tip(self, envelope: Envelope) -> None:
        self._answered(envelope.source, "tip")
        payload = envelope.payload
        node = self.daemon.node
        behind = payload.height > node.height
        diverged = (payload.height == node.height
                    and payload.tip_hash
                    and payload.tip_hash != node.chain.tip.hash)
        if (behind or diverged) and self._session is None:
            self._start_catchup(envelope.source, payload.height)

    def _start_catchup(self, peer: str, target_height: int) -> None:
        self.catchup_sessions += 1
        node = self.daemon.node
        base = max(0, min(node.height, target_height) - self.HEADER_OVERLAP)
        self._session = _CatchupSession(peer=peer,
                                        target_height=target_height,
                                        header_base=base)
        self._ask_session(GetHeadersMessage(above_height=base,
                                            limit=self.HEADER_WINDOW),
                          "headers")

    def _on_headers(self, envelope: Envelope) -> None:
        solicited = self._answered(envelope.source, "headers")
        session = self._session
        if (not solicited or session is None
                or session.peer != envelope.source):
            return
        payload = envelope.payload
        self.headers_received += len(payload.headers)
        session.target_height = max(session.target_height, payload.tip_height)
        chain = self.daemon.node.chain
        fork_height: Optional[int] = None
        for height, block_hash in reversed(payload.headers):
            if chain.contains(block_hash):
                fork_height = height
                break
        if fork_height is None:
            if session.header_base > 0:
                # Nothing in this window is ours: the fork is deeper.
                session.header_base = max(
                    0, session.header_base - self.HEADER_WINDOW)
                self._ask_session(
                    GetHeadersMessage(above_height=session.header_base,
                                      limit=self.HEADER_WINDOW),
                    "headers")
                return
            # Window already starts at genesis, which every chain of this
            # network shares: the fork point is height 0.
            fork_height = 0
        session.next_above = fork_height
        self._ask_session(GetBlocksMessage(above_height=fork_height), "blocks")

    def _ask_session(self, message: Any, kind: str) -> None:
        """A catch-up request to the session's peer, with retries."""
        peer = self._session.peer
        self.requests.ask(peer, peer, message, self.REQUEST_TIMEOUT, kind=kind,
                          retries=self.SESSION_RETRIES)

    def _on_blocks(self, envelope: Envelope) -> None:
        solicited = self._answered(envelope.source, "blocks")
        blocks = envelope.payload.blocks
        self.batches_received += 1
        before = self.daemon.node.height
        for block in blocks:
            self.daemon.gossip.receive_block(block, origin=envelope.source)
        self.blocks_recovered += max(0, self.daemon.node.height - before)
        session = self._session
        if (not solicited or session is None
                or session.peer != envelope.source):
            return
        if blocks:
            session.next_above += len(blocks)
        if blocks and session.next_above < session.target_height:
            # Pipelined batching: keep streaming within this session
            # instead of waiting a full poll interval per batch.
            self._ask_session(
                GetBlocksMessage(above_height=session.next_above), "blocks")
        else:
            self._session = None

    def _on_txs(self, envelope: Envelope) -> None:
        before = len(self.daemon.node.mempool)
        for tx in envelope.payload.transactions:
            self.daemon.gossip.receive_transaction(tx, origin=envelope.source)
        self.txs_recovered += max(0, len(self.daemon.node.mempool) - before)
