"""Equal-sim-time scheduling order must not leak into observable state.

Every delivery below lands at the *same* simulated instant; the only
degree of freedom is the insertion order of the events, which the
simulator uses as its tie-break.  We drive several independent nodes —
each with its own chain and tracer — through seeded shuffles of the
global delivery interleaving (per-node parent-first order is preserved,
everything else varies) and require that what the system *exports* is
byte-identical: the chain digest, the UTXO digest, and the canonical
JSONL trace of every node.

This is the dynamic twin of the static taint rule: if block connection
or trace export ever started depending on wall-clock reads, set
iteration, or cross-node arrival order, these digests would diverge.
"""

from __future__ import annotations

import random

import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT, Transaction, TxInput, TxOutput,
)
from repro.chaos.verify import chain_digest, utxo_digest
from repro.obs.export import export_trace_jsonl
from repro.obs.tracing import Tracer
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from repro.sim.core import AnyOf, Simulator, Timeout

NODES = ("gw-0", "gw-1", "gw-2")
BLOCKS = 5
DELIVERY_TIME = 5.0


def _coinbase(height: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(0)]))],
        outputs=[TxOutput(value=50,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )


def build_blocks(count: int = BLOCKS) -> list[Block]:
    """One deterministic chain extension, reused by every run."""
    chain = Chain()
    blocks = []
    parent = chain.tip.hash
    for height in range(1, count + 1):
        block = Block.assemble(prev_hash=parent, timestamp=float(height),
                               transactions=[_coinbase(height)])
        assert chain.add_block(block).status == "active"
        blocks.append(block)
        parent = block.hash
    return blocks


def interleaving(seed: int) -> list[tuple[str, int]]:
    """A seeded global (node, block-index) order.

    The multiset of node slots is shuffled, then each node's slots are
    filled with its blocks in index order — so every node still hears
    its blocks parent-first, but the cross-node arrival order varies
    freely with the seed.
    """
    slots = [node for node in NODES for _ in range(BLOCKS)]
    random.Random(seed).shuffle(slots)
    cursor = {node: 0 for node in NODES}
    order = []
    for node in slots:
        order.append((node, cursor[node]))
        cursor[node] += 1
    return order


def run_interleaving(blocks: list[Block], seed: int) -> dict[str, dict]:
    sim = Simulator()
    chains = {node: Chain() for node in NODES}
    tracers = {node: Tracer(sim) for node in NODES}

    def deliver(node: str, index: int) -> None:
        span = tracers[node].span("deliver.block", height=index + 1,
                                  block=blocks[index].hash)
        result = chains[node].add_block(blocks[index])
        span.end(status=result.status)

    for node, index in interleaving(seed):
        sim.call_at(DELIVERY_TIME, lambda n=node, i=index: deliver(n, i))
    sim.run(until=DELIVERY_TIME + 1.0)

    return {node: {
        "chain": chain_digest(chains[node]),
        "utxo": utxo_digest(chains[node]),
        "trace": export_trace_jsonl(tracers[node]),
    } for node in NODES}


@pytest.fixture(scope="module")
def blocks():
    return build_blocks()


def test_interleavings_differ_between_seeds():
    # The perturbation is real: different seeds produce different
    # global orders (otherwise the test below proves nothing).
    assert interleaving(1) != interleaving(2)
    for seed in (1, 2, 3):
        order = interleaving(seed)
        for node in NODES:
            indices = [i for n, i in order if n == node]
            assert indices == sorted(indices), "parent-first order broken"


def test_digests_and_traces_identical_across_interleavings(blocks):
    runs = [run_interleaving(blocks, seed) for seed in (1, 2, 3, 4)]
    reference = runs[0]
    for node in NODES:
        assert len(reference[node]["chain"]) == 64
        assert reference[node]["trace"], "trace export must not be empty"
    for other in runs[1:]:
        for node in NODES:
            assert other[node]["chain"] == reference[node]["chain"]
            assert other[node]["utxo"] == reference[node]["utxo"]
            assert other[node]["trace"] == reference[node]["trace"]


def test_all_nodes_converge_within_a_run(blocks):
    run = run_interleaving(blocks, seed=7)
    assert len({run[node]["chain"] for node in NODES}) == 1
    assert len({run[node]["utxo"] for node in NODES}) == 1


def test_rerun_with_same_seed_is_byte_identical(blocks):
    assert run_interleaving(blocks, seed=11) == \
        run_interleaving(blocks, seed=11)


# -- tie-break pin against the seed queue ------------------------------------
#
# The production Simulator must pop events in exactly the seed kernel's
# order: strictly increasing (time, insertion-seq).  ReferenceSimulator
# below *is* the seed algorithm — immutable tuple entries, one pop per
# step, `until` re-checked before every event — so any drift in the
# production kernel's equal-time tie-break shows up as a diverging firing
# log.

import heapq
import itertools
import weakref


class ReferenceSimulator:
    """The seed event loop, verbatim."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list = []
        self._counter = itertools.count()

    def schedule(self, delay, callback) -> None:
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._counter), callback))

    def run(self, until=None) -> None:
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return
            time, _tie, callback = heapq.heappop(self._queue)
            self.now = time
            callback()
        if until is not None:
            self.now = max(self.now, until)


def _random_workload(seed: int):
    """A nested schedule: roots spawn children, children spawn children.

    Delays come from a tiny grid so equal-time ties (including ties
    created *during* a same-time drain) are the common case, not the
    exception.
    """
    rng = random.Random(seed)
    delays = (0.0, 0.0, 0.25, 0.5, 1.0)
    plan = []  # (delay, label, children) trees, depth <= 3
    def subtree(depth: int):
        children = []
        if depth < 3:
            for _ in range(rng.randint(0, 2)):
                children.append(subtree(depth + 1))
        return (rng.choice(delays), next(counter), children)
    counter = itertools.count()
    for _ in range(rng.randint(4, 10)):
        plan.append(subtree(0))
    return plan


def _fire_plan(schedule, now, log, plan) -> None:
    for delay, label, children in plan:
        def fire(label=label, children=children):
            log.append((now(), label))
            _fire_plan(schedule, now, log, children)
        schedule(delay, fire)


@pytest.mark.parametrize("until", [None, 1.5])
def test_tightened_queue_matches_seed_tie_break(until):
    for seed in range(30):
        plan = _random_workload(seed)

        ref = ReferenceSimulator()
        ref_log: list = []
        _fire_plan(ref.schedule, lambda: ref.now, ref_log, plan)
        ref.run(until=until)

        sim = Simulator()
        sim_log: list = []
        _fire_plan(lambda d, cb: sim.call_in(d, cb), lambda: sim.now,
                   sim_log, plan)
        sim.run(until=until)

        assert sim_log == ref_log, f"firing order diverged for seed {seed}"
        assert sim.now == ref.now


def test_equal_time_events_scheduled_mid_drain_keep_insertion_order():
    # Events scheduled at the *current* timestamp from inside a callback
    # must fire within the same drain, after everything already queued at
    # that instant — exactly the seed semantics.
    sim = Simulator()
    log = []
    sim.call_in(1.0, lambda: (log.append("a"),
                              sim.call_in(0.0, lambda: log.append("a-child"))))
    sim.call_in(1.0, lambda: log.append("b"))
    sim.call_in(2.0, lambda: log.append("later"))
    sim.run()
    assert log == ["a", "b", "a-child", "later"]


class _Token:
    """A timeout value that can be weakly referenced."""


def test_a_drained_queue_holds_no_event_or_callback():
    # Once run() has drained the queue, the simulator keeps nothing alive
    # that it fired: not a callback, not an event's value, not a finished
    # process's generator.
    sim = Simulator()
    rng = random.Random(0xDEC0)
    log = []
    refs = []

    def process(index):
        yield sim.timeout(rng.uniform(0, 50))
        log.append(("process", index))

    for i in range(2000):
        callback = lambda i=i: log.append(i)
        token = _Token()
        generator = process(i)
        refs += [weakref.ref(callback), weakref.ref(token),
                 weakref.ref(generator)]
        sim.call_in(rng.uniform(0, 50), callback)
        Timeout(sim, rng.uniform(0, 50), value=token)
        sim.process(generator)
    del callback, token, generator
    sim.run()
    assert len(log) == 4000
    assert not sim._queue
    assert [ref for ref in refs if ref() is not None] == []


class _Race(AnyOf):
    """An ``AnyOf`` that can be weakly referenced."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("fired_first", [True, False])
def test_an_any_of_over_a_fired_child_is_not_kept_alive_by_it(fired_first):
    # A child that has already fired wins the race at once; it must not be
    # handed the composite's callback, which would never fire and never go.
    sim = Simulator()
    fired = sim.event().succeed("done")
    sim.run()
    waiting = sim.event()
    race = _Race(sim, [fired, waiting] if fired_first else [waiting, fired])
    winner = weakref.ref(race)
    sim.run()
    assert race.processed and race.value == "done"
    del race
    assert winner() is None
    assert fired.callbacks == [] and waiting.callbacks == []
