"""The seven workloads: inputs from a seed, a timed phase, correctness checks.

Every workload builds the program with its defaults, through public entry
points only, and is a single-thread batch job.  The three ``sim``
workloads are open-loop in *simulated* time (Poisson sensors at the
configured ``exchange_interval``); what is timed is the *host* time the
program needs for that fixed amount of simulated work, in reference
seconds (:mod:`bench.hostspeed`).  ``bench/README.md`` says why each
workload exists and which layers it bypasses.

Sizes scale linearly with ``--seconds``: at the default of
:data:`bench.NOMINAL_SECONDS` the timed phases of each workload take about that
long on the 2-core box the sizes were measured on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.blockchain import (Chain, ChainParams, FullNode, Miner, OutPoint,
                              TxOutput, UTXOEntry, Wallet)
from repro.chaos.verify import (assert_hierarchy_converged, chain_digest,
                                utxo_digest)
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.crypto.keys import KeyPair
from repro.lora import DataFrame, LoRaRadio, Position, RadioChannel
from repro.script.builder import p2pkh_locking, parse_ephemeral_key_release
from repro.sim import Simulator

from bench import NOMINAL_SECONDS
from bench.hostspeed import BURST, Stretch
from bench.tracing import Recorder

__all__ = ["CheckFailed", "Outcome", "Workload", "WORKLOADS",
           "measured", "workload_seed"]

# WAN payload types that carry blocks (the set network.py's own
# wan.bytes_per_block gauge uses).
BLOCK_MESSAGE_TYPES = ("BlockMessage", "BlocksMessage", "CompactBlockMessage",
                       "GetBlockTxnMessage", "BlockTxnMessage")


class CheckFailed(Exception):
    """A correctness check failed: the run reports no number."""


@dataclass
class Outcome:
    """What one run of a workload's timed phases produced."""

    attempted: int
    failed: int
    # reference and host seconds spent inside the timed calls
    timed_s: float
    raw_s: float
    # the workload's own end-to-end metrics, by the names in bench.metrics
    metrics: dict[str, float]
    digest: str
    # public counters of the program read after the run (layer table input)
    counters: dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # the workload's one rate metric (BENCHMARK.json's throughput_per_s)
    rate: str
    # set-ups per run (setup_s is their median); set-ups that take
    # seconds each are done once
    setup_repeats: int
    sizes: Callable[[float, bool], dict[str, int]]
    setup: Callable[[int, dict[str, int], Optional[Recorder]], Any]
    run: Callable[[Any, dict[str, int], Optional[Recorder]], Outcome]


def workload_seed(seed: int, workload: str) -> int:
    """The ``tools/sweep`` discipline: one derived seed per workload."""
    digest = hashlib.sha256(f"{seed}:{workload}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


def measured(fn: Callable, *args, **kwargs) -> tuple[Any, Stretch]:
    """One timed call into the program (:mod:`bench.hostspeed`)."""
    stretch = Stretch()
    gc.collect()
    stretch.probe(BURST)
    try:
        return stretch.call(fn, *args, **kwargs), stretch
    finally:
        stretch.probe(BURST)


def _scaled(base: int, seconds: float, floor: int = 1) -> int:
    return max(floor, round(base * seconds / NOMINAL_SECONDS))


def _span(recorder: Optional[Recorder], name: str):
    """The benchmark's own heavy steps, named so they are not mistaken
    for unattributed program time."""
    return nullcontext() if recorder is None else recorder.span(name)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(*parts: object) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# -- the three simulated deployments ---------------------------------------------

@dataclass
class _SimState:
    network: BcWANNetwork
    # chain label -> height when set-up ended (bootstrap blocks never
    # cross the WAN, so they are excluded from bytes-per-block)
    bootstrap_heights: dict[str, int]


def _sim_sizes(exchanges: int, gateways: int, sensors: int,
               smoke: tuple[int, int]):
    def sizes(seconds: float, smoke_run: bool) -> dict[str, int]:
        if smoke_run:
            return {"gateways": smoke[0], "sensors_per_gateway": smoke[1],
                    "exchanges": 12}
        return {"gateways": gateways, "sensors_per_gateway": sensors,
                "exchanges": _scaled(exchanges, seconds, floor=12)}
    return sizes


def _sim_setup(extra: Callable[[dict[str, int]], dict[str, Any]]):
    def setup(seed: int, sizes: dict[str, int],
              recorder: Optional[Recorder]) -> _SimState:
        config = NetworkConfig(
            seed=seed, num_gateways=sizes["gateways"],
            sensors_per_gateway=sizes["sensors_per_gateway"], **extra(sizes))
        with _span(recorder, "core.assemble"):
            network = BcWANNetwork(config)
        heights = {
            label: next(iter(daemons.values())).node.height
            for label, daemons in network.convergence_groups().items()
        }
        return _SimState(network, heights)
    return setup


def _paper_config(sizes: dict[str, int]) -> dict[str, Any]:
    return {}


def _light_config(sizes: dict[str, int]) -> dict[str, Any]:
    return {"light": LightConfig(
        device_class="light", compact_blocks=True,
        multicast_interval=15.0, light_sync_interval=30.0)}


def _regions_config(sizes: dict[str, int]) -> dict[str, Any]:
    return {
        "topology": RegionTopology(
            regions=4 if sizes["gateways"] >= 8 else 2,
            roaming="global", checkpoint_interval=30.0),
        "funding_coins": 40, "wan_loss_rate": 0.01, "sync_interval": 10.0,
    }


def _settle(network: BcWANNetwork) -> dict:
    """Every convergence group agrees on tip, chain and UTXO digests.

    A block mined at the instant the run stopped may still be in flight
    (or, on the lossy WAN, waiting for the next anti-entropy round), so
    the simulation is stepped on — untimed — until the federation is
    quiet; a federation that never agrees fails the check.
    """
    error: Optional[AssertionError] = None
    for _ in range(90):
        try:
            return assert_hierarchy_converged(network.convergence_groups())
        except AssertionError as exc:
            error = exc
            network.sim.run(until=network.sim.now + 1.0)
    raise CheckFailed(f"federation did not converge: {error}")


def _transactions(network: BcWANNetwork) -> dict[bytes, Any]:
    """Every non-coinbase transaction the federation holds, by txid: the
    active chain of each convergence group plus every mempool."""
    found = {}
    for group in network.convergence_groups().values():
        chain = next(iter(group.values())).node.chain
        for _height, block in chain.iter_active_blocks(start_height=1):
            found.update((tx.txid, tx) for tx in block.transactions[1:])
    for daemon in network.all_daemons().values():
        found.update((tx.txid, tx)
                     for tx in daemon.node.mempool.transactions())
    return found


def _settled_claims(transactions: dict[bytes, Any]) -> int:
    """What the ledgers pay gateways for revealed keys: the outputs of
    every transaction that spends a key-release offer to the gateway the
    offer names (a refund pays the buyer instead)."""
    payees = {}
    for tx in transactions.values():
        for index, output in enumerate(tx.outputs):
            offer = parse_ephemeral_key_release(output.script_pubkey)
            if offer is not None:
                payees[OutPoint(txid=tx.txid, index=index)] = (
                    p2pkh_locking(offer[1]))
    paid = 0
    for tx in transactions.values():
        payee = payees.get(tx.inputs[0].outpoint)
        if payee is not None:
            paid += sum(output.value for output in tx.outputs
                        if output.script_pubkey == payee)
    return paid


def _run_sim(state: _SimState, sizes: dict[str, int],
             recorder: Optional[Recorder]) -> Outcome:
    network = state.network
    report, stretch = measured(network.run, num_exchanges=sizes["exchanges"])
    seconds = stretch.reference_s
    wan = network.wan
    wan_bytes, wan_sent, wan_lost = (wan.bytes_modeled, wan.messages_sent,
                                     wan.messages_lost)
    bytes_by_type = dict(wan.bytes_by_type)
    events = network.sim.events_processed

    _check(report.completed > 0, "no exchange completed")
    _check(report.pending == 0,
           f"{report.pending} exchanges neither completed nor failed")
    _check(report.completed + report.failed == report.exchanges_launched,
           "completed + failed != launched")
    with _span(recorder, "bench.check"):
        groups = _settle(network)
        transactions = _transactions(network)
        settled = _settled_claims(transactions)
    # Section 4.4, fair exchange, judged on the converged ledgers: gateways
    # are paid for exactly the completed deliveries.  Their own counters
    # may run ahead of the ledgers (a cross-region claim is counted when it
    # is sent and the WAN may lose it) but never ahead of what recipients
    # locked.
    delivered = report.completed * network.config.price
    rewards = sum(report.gateway_rewards.values())
    spend = sum(report.recipient_spend.values())
    _check(settled == delivered and settled <= rewards <= spend,
           f"{report.completed} deliveries at {network.config.price}: the "
           f"ledgers pay gateways {settled}, gateways counted {rewards}, "
           f"recipients locked {spend}")

    latencies = sorted(report.latencies)
    channels = [site.channel for site in network.sites]
    radio = {
        key: sum(getattr(channel, key) for channel in channels)
        for key in ("frames_sent", "frames_delivered",
                    "frames_lost_collision", "frames_lost_sensitivity")
    }
    digest = _digest(
        latencies, report.exchanges_launched, report.completed,
        sorted((label, g.chain_digest, g.utxo_digest)
               for label, g in groups.items()),
        wan_bytes, wan_sent, wan_lost, sorted(radio.items()),
    )

    daemons = network.all_daemons().values()
    counters: dict[str, float] = {
        "exchanges": report.completed,
        "events": events,
        "wan_messages": wan_sent,
        "wan_messages_lost": wan_lost,
        "wan_block_bytes": sum(bytes_by_type.get(name, 0)
                               for name in BLOCK_MESSAGE_TYPES),
        "blocks": sum(g.height - state.bootstrap_heights[label]
                      for label, g in groups.items()),
        "transactions": len(transactions),
        "script_cache_hits": sum(
            d.node.engine.cache_stats.hits for d in daemons),
        "script_cache_misses": sum(
            d.node.engine.cache_stats.misses for d in daemons),
        "daemon_jobs": sum(d.stats.jobs_served for d in daemons),
        "sync_rounds": sum(agent.rounds for agent
                           in getattr(network, "sync_agents", [])),
        "spv_proofs_verified": sum(
            client.stats()["proofs_verified"]
            for client in network.light_clients),
        "compact_received": sum(
            relay.stats()["compact_received"]
            for relay in network.compact_relays),
        "compact_from_mempool": sum(
            relay.stats()["reconstructed_from_mempool"]
            for relay in network.compact_relays),
        "multicast_rounds": sum(m.rounds_sent for m in network.multicasters),
        "multicast_missed": sum(
            client.multicast.stats()["rounds_missed"]
            for client in network.light_clients
            if getattr(client, "multicast", None) is not None),
    }
    counters.update(radio)
    return Outcome(
        attempted=report.exchanges_launched,
        failed=report.exchanges_launched - report.completed,
        timed_s=seconds,
        raw_s=stretch.raw_s,
        metrics={
            "exchanges_per_s": report.completed / seconds,
            "sim_latency_p50_s": statistics.median(latencies),
            "sim_latency_p95_s": _percentile(latencies, 0.95),
            "wan_bytes_per_exchange": wan_bytes / report.completed,
        },
        digest=digest,
        counters=counters,
    )


# -- the ledger alone: three workloads ------------------------------------------------

LEDGER_PARAMS = ChainParams(coinbase_maturity=1)
TX_PER_BLOCK = 32


@dataclass
class _Producer:
    """A full node that signs, admits and mines its own spends."""

    node: FullNode
    wallet: Wallet
    miner: Miner
    rng: random.Random

    def produce(self, blocks: int, tx_per_block: int) -> int:
        """Sign, admit and mine ``blocks`` blocks; returns refused
        transactions."""
        refused = 0
        wallet, pool = self.wallet, self.node.mempool
        for _ in range(blocks):
            for _ in range(tx_per_block):
                tx = wallet.create_payment(wallet.pubkey_hash,
                                           self.rng.randint(50, 400))
                if not pool.accept(tx).accepted:
                    refused += 1
            self.miner.mine_and_connect(3.0 + self.node.chain.height)
        return refused

    def blocks(self, first_height: int = 1) -> list:
        return [block for _height, block
                in self.node.chain.iter_active_blocks(first_height)]

    def digests(self) -> tuple[str, str]:
        return chain_digest(self.node.chain), utxo_digest(self.node.chain)


def _producer(key: KeyPair, name: str, rng: random.Random) -> _Producer:
    node = FullNode(LEDGER_PARAMS, name)
    wallet = Wallet(node.chain, key)
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    return _Producer(node, wallet, miner, rng)


def _first_producer(seed: int, tx_per_block: int) -> tuple[KeyPair, _Producer]:
    """A producer past its genesis era: a matured coinbase split so that
    every block can carry independent spends."""
    rng = random.Random(seed)
    key = KeyPair.generate(rng)
    producer = _producer(key, "producer-a",
                         random.Random(rng.getrandbits(64)))
    producer.miner.mine_and_connect(0.0)
    producer.miner.mine_and_connect(1.0)
    fanout = producer.wallet.create_fanout(
        producer.wallet.pubkey_hash, 1_000, tx_per_block + 8)
    _check(producer.node.mempool.accept(fanout).accepted,
           "genesis fan-out refused")
    producer.miner.mine_and_connect(2.0)
    return key, producer


def _produce_inputs(producer: _Producer, blocks: int,
                    tx_per_block: int) -> None:
    """The blocks a validator workload is fed, produced during its set-up."""
    refused = producer.produce(blocks, tx_per_block)
    _check(refused == 0, f"{producer.node.name} refused {refused} of its "
                         f"own transactions while producing inputs")


# ledger_admit

def _admit_sizes(seconds: float, smoke: bool) -> dict[str, int]:
    if smoke:
        return {"blocks": 4, "tx_per_block": 8}
    return {"blocks": _scaled(44, seconds), "tx_per_block": TX_PER_BLOCK}


def _admit_setup(seed: int, sizes: dict[str, int],
                 recorder: Optional[Recorder]) -> _Producer:
    return _first_producer(seed, sizes["tx_per_block"])[1]


def _run_admit(producer: _Producer, sizes: dict[str, int],
               recorder: Optional[Recorder]) -> Outcome:
    blocks, per_block = sizes["blocks"], sizes["tx_per_block"]
    first = producer.node.chain.height + 1
    refused, stretch = measured(producer.produce, blocks, per_block)
    seconds = stretch.reference_s
    offered = blocks * per_block
    mined = [len(block.transactions) - 1
             for block in producer.blocks(first_height=first)]
    _check(refused == 0 and mined == [per_block] * blocks
           and len(producer.node.mempool) == 0,
           f"{refused} of {offered} transactions refused; blocks carry "
           f"{mined} spends")
    cache = producer.node.engine.cache_stats
    return Outcome(
        attempted=offered,
        failed=refused,
        timed_s=seconds,
        raw_s=stretch.raw_s,
        metrics={"admit_tx_per_s": offered / seconds},
        digest=_digest(producer.digests(), offered),
        counters={
            "transactions": offered + 1,  # and the genesis fan-out
            "script_cache_hits": cache.hits,
            "script_cache_misses": cache.misses,
        },
    )


# ledger_connect and ledger_reorg: validators beside 2x10^5 untouched outputs

@dataclass(frozen=True)
class _Expected:
    """What a validator must hold once a producer's block is its tip."""

    tip: bytes
    chain_digest: str
    unspent: dict


@dataclass
class _LedgerState:
    # synthetic unspent outputs no block touches (PR 9's scale), loaded
    # into every validator before it is fed
    filler: list
    # blocks every validator is given before the timed feeds
    prefix: list
    # the timed feeds in order, each with the state it must leave
    feeds: list[tuple[list, _Expected]]
    # the producers' final digests, for the output digest
    digests: list[tuple[str, str]]


def _filler(count: int, recorder: Optional[Recorder]) -> list:
    entry = UTXOEntry(
        output=TxOutput(value=1, script_pubkey=p2pkh_locking(b"\xfe" * 20)),
        height=0, is_coinbase=False)
    with _span(recorder, "bench.load"):
        return [(OutPoint(txid=i.to_bytes(32, "big"), index=0), entry)
                for i in range(count)]


def _expected(producer: _Producer) -> _Expected:
    chain = producer.node.chain
    return _Expected(chain.tip.hash, chain_digest(chain),
                     dict(chain.utxos.items()))


def _validator(state: _LedgerState, verify_scripts: bool,
               recorder: Optional[Recorder]) -> Chain:
    with _span(recorder, "bench.load"):
        chain = Chain(LEDGER_PARAMS, verify_scripts=verify_scripts)
        for outpoint, entry in state.filler:
            chain.utxos.add(outpoint, entry)
        if state.prefix:
            results = chain.add_blocks(state.prefix)
            _check(all(r.status == "active" for r in results),
                   "a validator refused the shared prefix")
    return chain


def _check_state(validator: Chain, state: _LedgerState, expected: _Expected,
                 recorder: Optional[Recorder], filler_too: bool) -> None:
    """The validator holds the producer's chain and exactly the producer's
    unspent outputs beside the filler (compared entry by entry: the
    producers hold no filler, and ``utxo_digest`` over 2x10^5 entries
    costs over a second a call)."""
    with _span(recorder, "bench.check"):
        _check(validator.tip.hash == expected.tip
               and chain_digest(validator) == expected.chain_digest,
               "validator chain differs from its producer's")
        utxos = validator.utxos
        _check(len(utxos) == len(expected.unspent) + len(state.filler)
               and all(utxos.get(outpoint) == entry
                       for outpoint, entry in expected.unspent.items()),
               "validator UTXO set differs from its producer's")
        if filler_too:
            _check(all(utxos.get(outpoint) is entry
                       for outpoint, entry in state.filler),
                   "a validator lost or replaced filler outputs")


def _connect_sizes(seconds: float, smoke: bool) -> dict[str, int]:
    if smoke:
        return {"blocks": 3, "tx_per_block": 8, "filler_utxos": 2_000,
                "validators": 2}
    return {"blocks": 16, "tx_per_block": TX_PER_BLOCK,
            "filler_utxos": 200_000,
            "validators": _scaled(8, seconds, floor=3)}


def _connect_setup(seed: int, sizes: dict[str, int],
                   recorder: Optional[Recorder]) -> _LedgerState:
    filler = _filler(sizes["filler_utxos"], recorder)
    _key, producer = _first_producer(seed, sizes["tx_per_block"])
    _produce_inputs(producer, sizes["blocks"], sizes["tx_per_block"])
    return _LedgerState(filler, [],
                        [(producer.blocks(), _expected(producer))],
                        [producer.digests()])


def _run_connect(state: _LedgerState, sizes: dict[str, int],
                 recorder: Optional[Recorder]) -> Outcome:
    """Fresh script-verifying validators (cold cache) catch up on the
    producer's chain; the rate is the median over the validators."""
    (corpus, expected), = state.feeds
    spends = sum(len(block.transactions) - 1 for block in corpus)
    rates = []
    seconds = raw_s = 0.0
    refused = hits = misses = 0
    for _ in range(sizes["validators"]):
        validator = _validator(state, True, recorder)
        results, stretch = measured(validator.add_blocks, corpus)
        seconds += stretch.reference_s
        raw_s += stretch.raw_s
        rates.append(spends / stretch.reference_s)
        refused += sum(r.status != "active" for r in results)
        hits += validator.engine.cache_stats.hits
        misses += validator.engine.cache_stats.misses
        _check_state(validator, state, expected, recorder, filler_too=True)
    fed = len(corpus) * sizes["validators"]
    _check(refused == 0, f"{refused} of {fed} blocks were refused")
    return Outcome(
        attempted=fed,
        failed=refused,
        timed_s=seconds,
        raw_s=raw_s,
        metrics={"connect_tx_per_s": statistics.median(rates)},
        digest=_digest(state.digests, spends),
        counters={
            "transactions": spends,
            "script_cache_hits": hits,
            "script_cache_misses": misses,
        },
    )


def _reorg_sizes(seconds: float, smoke: bool) -> dict[str, int]:
    if smoke:
        return {"prefix_blocks": 2, "branch_blocks": 2, "tx_per_block": 8,
                "filler_utxos": 2_000, "validators": 2}
    return {"prefix_blocks": 2,
            # even, so the zig-zag ends on branch B's tip
            "branch_blocks": 12, "tx_per_block": TX_PER_BLOCK,
            "filler_utxos": 200_000,
            "validators": _scaled(20, seconds, floor=3)}


def _branch(producer: _Producer, blocks: int,
            tx_per_block: int) -> list[tuple[Any, _Expected]]:
    """Produce ``blocks`` blocks, keeping the producer's state at each."""
    steps = []
    for _ in range(blocks):
        _produce_inputs(producer, 1, tx_per_block)
        steps.append((producer.node.chain.tip.block, _expected(producer)))
    return steps


def _zigzag(a: list, b: list) -> list[tuple[list, _Expected]]:
    """A1 | B1 B2 | A2 A3 | B3 B4 | ...: every feed after the first makes
    the other branch the longer one, one block deeper each time."""
    branches = (a, b)
    taken = [1, 0]
    groups = [a[:1]]
    side = 1
    while taken[side] + 2 <= len(branches[side]):
        groups.append(branches[side][taken[side]:taken[side] + 2])
        taken[side] += 2
        side = 1 - side
    return [([block for block, _expected_ in steps], steps[-1][1])
            for steps in groups]


def _reorg_setup(seed: int, sizes: dict[str, int],
                 recorder: Optional[Recorder]) -> _LedgerState:
    """Two producers share a prefix, then diverge."""
    per_block, depth = sizes["tx_per_block"], sizes["branch_blocks"]
    filler = _filler(sizes["filler_utxos"], recorder)
    key, a = _first_producer(seed, per_block)
    _produce_inputs(a, sizes["prefix_blocks"], per_block)
    prefix = a.blocks()
    b = _producer(key, "producer-b", random.Random(seed ^ 0xB))
    results = b.node.chain.add_blocks(prefix)
    _check(all(r.status == "active" for r in results),
           "producer B refused the shared prefix")
    # A stops one block short, so the zig-zag ends on B's tip.
    feeds = _zigzag(_branch(a, depth - 1, per_block),
                    _branch(b, depth, per_block))
    return _LedgerState(filler, prefix, feeds, [a.digests(), b.digests()])


def _feed(validator: Chain, blocks: list):
    for block in blocks:
        result = validator.add_block(block)
    return result


def _run_reorg(state: _LedgerState, sizes: dict[str, int],
               recorder: Optional[Recorder]) -> Outcome:
    """Validators that do not re-run scripts (like every node of the
    simulated deployments) are fed the two branches alternately, so what
    is timed is contextual checks plus UTXO apply / undo.  After every
    feed the validator must hold the state of the fed branch's producer;
    the rate is the median over the validators."""
    rates = []
    seconds = raw_s = 0.0
    fed = refused = moved = 0
    for _ in range(sizes["validators"]):
        validator = _validator(state, False, recorder)
        stretch = Stretch()
        validator_moved = 0
        gc.collect()
        stretch.probe(BURST)
        for number, (blocks, expected) in enumerate(state.feeds, start=1):
            # the checks between feeds stay outside the clock
            result = stretch.call(_feed, validator, blocks)
            fed += len(blocks)
            refused += result.status != "active"
            validator_moved += len(result.disconnected) + len(result.connected)
            _check_state(validator, state, expected, recorder,
                         filler_too=number == len(state.feeds))
        stretch.probe(BURST)
        rates.append(validator_moved / stretch.reference_s)
        seconds += stretch.reference_s
        raw_s += stretch.raw_s
        moved += validator_moved
    _check(refused == 0,
           f"{refused} feeds did not make the fed branch active")
    return Outcome(
        attempted=fed,
        failed=refused,
        timed_s=seconds,
        raw_s=raw_s,
        metrics={"reorg_blocks_per_s": statistics.median(rates)},
        digest=_digest(state.digests, fed, moved),
        # what the producers signed and admitted at set-up
        counters={"transactions": sum(
            len(block.transactions) - 1
            for block in state.prefix + [b for blocks, _ in state.feeds
                                         for b in blocks])},
    )


# -- the radio alone -----------------------------------------------------------------

@dataclass
class _RadioState:
    sim: Simulator
    channel: RadioChannel
    sensors: int
    heard: list[int]
    returned: list[int]


def _radio_sizes(seconds: float, smoke: bool) -> dict[str, int]:
    if smoke:
        return {"sensors": 50, "sim_seconds": 120}
    return {"sensors": 1000, "sim_seconds": _scaled(400, seconds, floor=60)}


def _sensor_loop(sim: Simulator, radio: LoRaRadio, rng: random.Random,
                 returned: list[int]):
    frame = DataFrame(sender=radio.name, encrypted_message=bytes(64),
                      signature=bytes(64))
    while True:
        yield sim.timeout(rng.expovariate(1.0 / 60.0))
        # A sensor that drew three short gaps has used up all its channels.
        # radio.send() would sleep the regulatory wait out itself, but its
        # wake-up can land one ulp short of the allowed instant and raise
        # (seed 13 did); the load generator waits here, with a margin.
        wait = radio.duty_cycle_wait()
        if wait > 0:
            yield sim.timeout(wait + 1e-6)
        yield from radio.send(frame)
        returned[0] += 1


def _radio_setup(seed: int, sizes: dict[str, int],
                 recorder: Optional[Recorder]) -> _RadioState:
    rng = random.Random(seed)
    sim = Simulator()
    channel = RadioChannel(sim, random.Random(rng.getrandbits(64)))
    gateway = LoRaRadio("gateway", channel, position=Position(0.0, 0.0),
                        duty_cycle=0.1)
    heard, returned = [0], [0]

    def on_frame(frame, rssi: float) -> None:
        heard[0] += 1

    gateway.on_receive(on_frame)
    for index in range(sizes["sensors"]):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(50.0, 4000.0)
        radio = LoRaRadio(
            f"sensor-{index}", channel,
            position=Position(distance * math.cos(angle),
                              distance * math.sin(angle)))
        sim.process(_sensor_loop(sim, radio,
                                 random.Random(rng.getrandbits(64)),
                                 returned))
    return _RadioState(sim, channel, sizes["sensors"], heard, returned)


def _run_radio(state: _RadioState, sizes: dict[str, int],
               recorder: Optional[Recorder]) -> Outcome:
    sim, channel = state.sim, state.channel
    _, stretch = measured(sim.run, until=float(sizes["sim_seconds"]))
    seconds = stretch.reference_s
    sent = channel.frames_sent
    evaluated = (channel.frames_delivered + channel.frames_lost_collision
                 + channel.frames_lost_sensitivity)
    # Every frame whose airtime ended is judged at every radio but its
    # sender's own; frames still on the air when the run stops are not.
    resolved, remainder = divmod(evaluated, state.sensors)
    _check(remainder == 0 and state.returned[0] <= resolved <= sent,
           f"{evaluated} listener verdicts for {sent} frames at "
           f"{state.sensors} listeners each")
    _check(0 < state.heard[0] <= resolved, "the gateway heard nothing")
    return Outcome(
        attempted=sent,
        failed=sent - state.heard[0],
        timed_s=seconds,
        raw_s=stretch.raw_s,
        metrics={"frames_per_s": sent / seconds},
        digest=_digest(sent, state.heard[0], channel.frames_delivered,
                       channel.frames_lost_collision,
                       channel.frames_lost_sensitivity,
                       sim.events_processed),
        counters={
            "events": sim.events_processed,
            "frames_sent": sent,
            "frames_resolved": resolved,
            "frames_delivered": channel.frames_delivered,
            "frames_lost_collision": channel.frames_lost_collision,
            "frames_lost_sensitivity": channel.frames_lost_sensitivity,
        },
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper_fig5",
        "the paper's testbed at its defaults (Fig. 5): crypto-bound "
        "full-node writes; radio and event-queue changes predict no change",
        "exchanges_per_s", 1,
        _sim_sizes(160, 5, 30, smoke=(2, 3)),
        _sim_setup(_paper_config), _run_sim),
    Workload(
        "light_fig5",
        "same testbed with duty-cycled SPV recipients: Merkle-proof and "
        "header reads, compact relay and multicast, where light/ changes show",
        "exchanges_per_s", 1,
        _sim_sizes(150, 5, 30, smoke=(2, 3)),
        _sim_setup(_light_config), _run_sim),
    Workload(
        "regions_lossy",
        "four sub-chains with checkpoint anchoring on a 1 % lossy WAN: the "
        "only run with sync, checkpoints and lost messages; 320 RSA keygens "
        "at set-up",
        "exchanges_per_s", 1,
        _sim_sizes(145, 16, 20, smoke=(4, 2)),
        _sim_setup(_regions_config), _run_sim),
    Workload(
        "ledger_admit",
        "a full node signs, admits and mines its own P2PKH spends: wallet, "
        "mempool admission and mining; no validator, sim, lora, p2p or core",
        "admit_tx_per_s", 3,
        _admit_sizes, _admit_setup, _run_admit),
    Workload(
        "ledger_connect",
        "fresh script-verifying chains beside 2e5 unspent outputs catch up "
        "on a produced chain, cold cache: forward use of the UTXO store",
        "connect_tx_per_s", 1,
        _connect_sizes, _connect_setup, _run_connect),
    Workload(
        "ledger_reorg",
        "chains beside 2e5 unspent outputs are fed two branches alternately, "
        "each feed one block deeper: UTXO apply and undo, no signature work",
        "reorg_blocks_per_s", 1,
        _reorg_sizes, _reorg_setup, _run_reorg),
    Workload(
        "radio_cell",
        "the radio alone, 1000 sensors on one channel: channel kernel and "
        "event queue; every ledger or crypto change predicts no change",
        "frames_per_s", 3,
        _radio_sizes, _radio_setup, _run_radio),
)}
