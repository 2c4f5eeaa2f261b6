"""One chain's block production: its genesis era, then its schedule.

Every chain of a deployment — the flat chain, each region's sub-chain and
the settlement chain — has one :class:`BlockProducer`.  The chain's master
node mines the genesis era (:meth:`BlockProducer.bootstrap`); from t=0 one
generator, :meth:`BlockProducer._produce`, extends the chain on one of two
schedules:

* :class:`Interval` — the paper's PoC (§5.1): the master mines every
  ``block_interval`` seconds and nobody else mines;
* :class:`~repro.blockchain.pos.StakeRegistry` — the §6 slot lottery: each
  gateway of the chain holds equal stake, wakes at every slot and produces
  an endorsed block when it leads.  The registry is also the leader rule
  of every node's validation engine, so a block that its slot's leader did
  not endorse is refused on every delivery path.

Production goes through the producing host's daemon, so a stalled gateway
daemon delays its own blocks — the edge-node cost §6 wants PoS to reduce.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Optional, Union

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.pos import StakeRegistry
from repro.blockchain.wallet import Wallet
from repro.core.config import FUNDING_COIN_VALUE, NetworkConfig
from repro.core.daemon import BlockchainDaemon
from repro.core.directory import build_announcement_payload
from repro.crypto import ecdsa
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError, DaemonDown
from repro.obs.tracing import Tracer
from repro.sim.core import Event, Simulator

__all__ = ["BlockProducer", "Interval", "Schedule", "chain_schedule"]

# Every gateway of a proof-of-stake chain holds the same stake.
STAKE = 100


@dataclass(frozen=True)
class Interval:
    """The chain's master mines every ``seconds``."""

    seconds: float

    def wait(self, now: float) -> float:
        return self.seconds

    def leads(self, name: str, now: float) -> bool:
        return True


Schedule = Union[Interval, StakeRegistry]


def chain_schedule(config: NetworkConfig, tag: str) -> Schedule:
    """The schedule of the gateway chain ``tag`` (``""`` flat, ``-r<i>``).

    Under proof of stake each chain runs its own election: own epoch
    seed, own slots.
    """
    interval = config.chain.block_interval
    if config.consensus == "pos":
        return StakeRegistry(
            epoch_seed=f"bcwan-pos-{config.seed}{tag}".encode("utf-8"),
            slot_duration=interval)
    return Interval(interval)


class BlockProducer:
    """The master of one chain and the schedule that extends it.

    ``wallet`` is the master's: it funds the genesis era and, on an
    :class:`Interval`, collects the reward of every block after it.
    ``chain_id`` labels the chain's ``block.mine`` spans (empty for the
    flat chain).
    """

    def __init__(self, sim: Simulator, tracer: Tracer, master: FullNode,
                 key: KeyPair, schedule: Schedule, chain_id: str) -> None:
        self.sim = sim
        self.tracer = tracer
        self.master = master
        self.wallet = Wallet(master.chain, key)
        self.wallet.watch_chain()
        self.schedule = schedule
        self.chain_id = chain_id

    def bootstrap(self, funded: list[KeyPair],
                  announced: list[tuple[KeyPair, str]],
                  funding_coins: int) -> None:
        """Mine the chain's genesis era: maturity, funding, announcements.

        Every key in ``funded`` receives ``funding_coins`` coins; every
        ``(key, endpoint)`` in ``announced`` gets its IP announcement
        published — the "each recipient ... must create a blockchain
        transaction containing the information relative to its IP
        address" step, before t=0.  A key funded on this chain pays for
        its own announcement; payloads are key-signed, so the master's
        wallet can carry those of actors who hold no coins here (a
        region's foreign recipients).
        """
        node = self.master
        miner = Miner(chain=node.chain, mempool=node.mempool,
                      reward_pubkey_hash=self.wallet.pubkey_hash)
        own = {key.pubkey_hash for key in funded}
        carried = sum(1 for key, _ in announced
                      if key.pubkey_hash not in own)
        # One mature coinbase per transaction the master pays for, plus
        # headroom.
        for _ in range(len(funded) + carried
                       + node.params.coinbase_maturity + 1):
            miner.mine_and_connect(0.0)

        def submit(tx, what: str) -> None:
            decision = node.submit_transaction(tx)
            if not decision.accepted:
                raise ConfigurationError(
                    f"bootstrap {what} rejected: {decision.reason}")

        for key in funded:
            submit(self.wallet.create_fanout(
                key.pubkey_hash, FUNDING_COIN_VALUE, funding_coins,
            ), "funding")
        self._mine_until_mempool_empty(miner)
        if not announced:
            return  # the settlement chain: no extra block
        for key, endpoint in announced:
            carrier = self.wallet
            if key.pubkey_hash in own:
                carrier = Wallet(node.chain, key)
                carrier.refresh_from_utxo_set()
            submit(carrier.create_announcement(
                build_announcement_payload(key, endpoint)), "announcement")
        self._mine_until_mempool_empty(miner)

    def replay(self, node: FullNode) -> None:
        """Initial block download: copy the bootstrap chain to ``node``."""
        for _height, block in self.master.chain.iter_active_blocks(
                start_height=1):
            node.chain.add_block(block)

    def _mine_until_mempool_empty(self, miner: Miner) -> None:
        """Mine bootstrap blocks until every pending tx confirms (with a
        small ``max_block_size`` one block cannot carry them all)."""
        for _ in range(10_001):
            miner.mine_and_connect(0.0)
            if not len(self.master.mempool):
                return
        raise ConfigurationError(
            "bootstrap transactions never fit a block; "
            "max_block_size is too small")

    def start(self, master: BlockchainDaemon,
              stakeholders: list[tuple[BlockchainDaemon, Wallet]]) -> None:
        """Start producing through ``master`` (an :class:`Interval`) or
        through every stakeholder's daemon (the slot lottery).  The
        chain's current height closes its genesis era: the leader rule
        exempts no block above it."""
        if isinstance(self.schedule, Interval):
            seats = [(master, self.wallet.keypair, None)]
        else:
            seats = [(daemon, wallet.keypair, wallet.keypair.private_key)
                     for daemon, wallet in stakeholders]
            self.schedule.genesis_height = self.master.height
            for daemon, key, _ in seats:
                self.schedule.register(daemon.name, key.public_key, STAKE)
            for daemon in [master] + [daemon for daemon, _, _ in seats]:
                daemon.node.engine.leader_rule = self.schedule
        for daemon, key, endorsing_key in seats:
            self.sim.process(self._produce(daemon, key, endorsing_key))

    def _produce(self, daemon: BlockchainDaemon, key: KeyPair,
                 endorsing_key: Optional[ecdsa.PrivateKey]):
        """Wake on the schedule; mine through ``daemon`` when it leads."""
        name = daemon.name
        # Sub-chains and the anchor label their blocks; the flat chain's
        # spans carry no region.
        region = {"region": self.chain_id} if self.chain_id else {}
        while True:
            yield self.sim.timeout(self.schedule.wait(self.sim.now))
            if not self.schedule.leads(name, self.sim.now):
                continue
            # One block = one trace: mining roots it, each gossip hop and
            # per-peer validation nests beneath.
            span = self.tracer.span("block.mine", host=name, **region)
            job = daemon.rpc(lambda: self._mine(daemon, key, endorsing_key))
            job.callbacks.append(lambda done, span=span: self._publish(
                daemon, span, done))
            if endorsing_key is None:
                # The master counts its next interval from the end of its
                # job, served or dropped.  A stakeholder does not wait, so
                # its slot clock never falls behind a busy daemon.
                with suppress(DaemonDown):
                    yield job

    def _publish(self, daemon: BlockchainDaemon, span, done: Event) -> None:
        """Close the ``block.mine`` span; gossip the block its job
        produced."""
        if not done.ok:
            span.end("lost", reason=str(done.value))
            return
        block = done.value
        if block is None:
            span.end("skipped", reason="slot over")
            return
        span.end("ok", height=daemon.node.height, txs=len(block.transactions))
        daemon.gossip.broadcast_block(block, parent=span)

    def _mine(self, daemon: BlockchainDaemon, key: KeyPair,
              endorsing_key: Optional[ecdsa.PrivateKey]):
        """Mine on the daemon's node, unless the job is served after its
        slot."""
        now = self.sim.now
        if not self.schedule.leads(daemon.name, now):
            return None
        node = daemon.node
        return Miner(chain=node.chain, mempool=node.mempool,
                     reward_pubkey_hash=key.pubkey_hash,
                     endorsing_key=endorsing_key).mine_and_connect(now)
