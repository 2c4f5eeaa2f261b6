"""Block deltas: a block is validated once, then reverted and replayed.

Two branches off a shared prefix are fed alternately, each feed making
the other branch the longer one (the zig-zag of the ``ledger_reorg``
workload).  The blocks carry chained spends inside one block, a spent
outpoint created again in the same block (a repeated coinbase funds a
repeated transaction), and — when hypothesis says so — a block spending
a missing output, so that a reorg fails and replays the old branch.
After every block the chain's UTXO set, iteration order included, must
be the one ``tests/oracles/utxo_reference.ReferenceChain`` keeps by
applying and undoing one transaction at a time.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.utxo import UTXOEntry, UTXOSet
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.utxo_reference import ReferenceChain

# Maturity 0: a coinbase output is spendable in its own block, which the
# repeated-coinbase block needs.
PARAMS = ChainParams(coinbase_maturity=0)
LOCK = p2pkh_locking(b"\x07" * 20)
# One coinbase that occurs again once its output is spent, and the one
# transaction spending it: every block carrying both spends ``RE:0`` and
# creates it again.
TWIN = Transaction(
    inputs=[TxInput(outpoint=COINBASE_OUTPOINT, script_sig=Script([b"twin"]))],
    outputs=[TxOutput(value=50, script_pubkey=LOCK)])
RE = Transaction(inputs=[TxInput(outpoint=TWIN.outpoints[0])],
                 outputs=[TxOutput(value=50, script_pubkey=LOCK)])
RESERVED = {TWIN.outpoints[0], RE.outpoints[0]}


def coinbase(height: int, tag: int, outputs: int = 1) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(tag)]))],
        outputs=[TxOutput(value=50 // outputs, script_pubkey=LOCK)] * outputs)


def spend(outpoints: list[OutPoint], value: int, tag: int,
          outputs: int = 1) -> Transaction:
    """Spend ``outpoints`` (worth ``value``) into ``outputs`` outputs; the
    tag makes the transaction one of a kind."""
    outputs = max(1, min(outputs, value))
    values = [value // outputs] * outputs
    values[0] += value - sum(values)
    return Transaction(
        inputs=[TxInput(outpoint=op) for op in outpoints],
        outputs=[TxOutput(value=v, script_pubkey=Script([encode_number(tag)]))
                 for v in values])


class Branch:
    """Blocks grown on one parent, with the unspent outputs at its tip."""

    def __init__(self, parent: bytes, height: int,
                 model: dict[OutPoint, UTXOEntry]) -> None:
        self.parent, self.height, self.model = parent, height, dict(model)
        self.blocks: list[Block] = []

    def grow(self, tag: int, picks: list[int], chained: bool = False,
             twin: bool = False, invalid: bool = False) -> Block:
        """One block on the tip: a coinbase (the twin when ``twin`` and it
        is spent), one spend of one or two outputs per pick, a spend of
        the last spend's output when ``chained``, ``RE:0`` spent and
        created again when ``twin``, and a spend of a missing output when
        ``invalid``."""
        height = self.height + 1
        model = self.model
        twin = (twin and TWIN.outpoints[0] not in model
                and RE.outpoints[0] in model)
        txs = [TWIN if twin else coinbase(height, tag)]
        pool = sorted(op for op in model if op not in RESERVED)
        for number, pick in enumerate(picks):
            ops = [pool.pop(pick % len(pool))
                   for _ in range(min(1 + pick % 2, len(pool)))]
            if ops:
                txs.append(spend(ops, sum(model[op].value for op in ops),
                                 tag * 8 + number, outputs=1 + pick % 3))
        if chained and len(txs) > 1:
            last = txs[-1]
            txs.append(spend([last.outpoints[0]], last.outputs[0].value,
                             tag * 8 + 7))
        if twin:
            txs += [spend([RE.outpoints[0]], 50, tag * 8 + 6), RE]
        for tx in txs:
            if not tx.is_coinbase:
                for tx_input in tx.inputs:
                    del model[tx_input.outpoint]
            for outpoint, output in zip(tx.outpoints, tx.outputs):
                model[outpoint] = UTXOEntry(output, height, tx.is_coinbase)
        if invalid:
            missing = OutPoint(txid=tag.to_bytes(32, "big"), index=0)
            txs.append(spend([missing], 1, tag * 8 + 5))
        block = Block.assemble(prev_hash=self.parent, timestamp=float(tag),
                               transactions=txs)
        self.parent, self.height = block.hash, height
        self.blocks.append(block)
        return block


def prefix(chain: Chain) -> tuple[list[Block], Branch]:
    """Two blocks every branch shares: a coinbase of twelve outputs, then
    the twin and ``RE``."""
    trunk = Branch(chain.genesis.hash, 0, {})
    fan = coinbase(1, 0, outputs=12)
    trunk.model = {op: UTXOEntry(output, 1, True)
                   for op, output in zip(fan.outpoints, fan.outputs)}
    first = Block.assemble(prev_hash=chain.genesis.hash, timestamp=0.5,
                           transactions=[fan])
    second = Block.assemble(prev_hash=first.hash, timestamp=1.0,
                            transactions=[TWIN, RE])
    trunk.parent, trunk.height = second.hash, 2
    trunk.model[RE.outpoints[0]] = UTXOEntry(RE.outputs[0], 2, False)
    return [first, second], trunk


def zigzag(a: list[Block], b: list[Block]) -> list[list[Block]]:
    """A1 | B1 B2 | A2 A3 | B3 B4 | ...: each feed after the first makes
    the other branch one block longer than the active one."""
    feeds, taken, side = [a[:1]], [1, 0], 1
    branches = (a, b)
    while taken[side] < len(branches[side]):
        feeds.append(branches[side][taken[side]:taken[side] + 2])
        taken[side] += 2
        side = 1 - side
    return feeds


def count_connects(chain: Chain) -> list[bytes]:
    """The hash of every block the chain's engine connects, in order."""
    connects: list[bytes] = []
    connect = chain.engine.connect_block

    def connect_block(block, *args, **kwargs):
        connects.append(block.hash)
        return connect(block, *args, **kwargs)

    chain.engine.connect_block = connect_block
    return connects


def count_delta_calls(monkeypatch) -> dict[str, int]:
    """Count every ``UTXOSet.apply_delta`` and ``revert_delta`` call."""
    calls = {"apply_delta": 0, "revert_delta": 0}
    for name in calls:
        def wrapped(self, *delta, _name=name,
                    _original=getattr(UTXOSet, name)):
            calls[_name] += 1
            return _original(self, *delta)

        monkeypatch.setattr(UTXOSet, name, wrapped)
    return calls


def feed(chain: Chain, oracle: ReferenceChain, block: Block) -> None:
    """Both refuse ``block`` or neither does, and then both hold the same
    tip and the same set, in the same order."""
    refused = []
    for ledger in (oracle, chain):
        try:
            ledger.add_block(block)
        except ValidationError:
            refused.append(ledger)
    assert refused in ([], [oracle, chain])
    assert chain.tip.hash == oracle.tip
    assert list(chain.utxos.items()) == list(oracle.utxos.items())


block_plans = st.lists(
    st.tuples(st.lists(st.integers(0, 10**6), max_size=3),  # spends
              st.booleans(),                                 # chained
              st.booleans(),                                 # twin
              st.integers(0, 9)),                            # 0: invalid
    min_size=4, max_size=9)


@settings(max_examples=40, deadline=None)
@given(block_plans, block_plans)
def test_ping_pong_keeps_the_per_transaction_order(plan_a, plan_b):
    chain = Chain(PARAMS, verify_scripts=False)
    oracle = ReferenceChain(chain.genesis)
    connects = count_connects(chain)
    shared, trunk = prefix(chain)
    for block in shared:
        feed(chain, oracle, block)
    branches = []
    for offset, plan in ((100, plan_a), (200, plan_b)):
        branch = Branch(trunk.parent, trunk.height, trunk.model)
        for tag, (picks, chained, twin, fate) in enumerate(plan, offset):
            branch.grow(tag, picks, chained, twin, invalid=fate == 0)
        branches.append(branch.blocks)
    for blocks in zigzag(*branches):
        for block in blocks:
            feed(chain, oracle, block)
    # Every block reached the engine at most once, a refused one too.
    assert len(connects) == len(set(connects))


def test_each_block_connects_once_and_every_reconnect_is_a_replay(
        monkeypatch):
    chain = Chain(PARAMS, verify_scripts=False)
    shared, trunk = prefix(chain)
    a, b = (Branch(trunk.parent, trunk.height, trunk.model)
            for _ in range(2))
    for tag in range(7):
        a.grow(100 + tag, [tag, 2 * tag], chained=tag % 2 == 1,
               twin=tag % 3 == 0)
        b.grow(200 + tag, [3 * tag, tag + 1], twin=tag % 3 == 1)
    b.grow(300, [5])
    connects, calls = count_connects(chain), count_delta_calls(monkeypatch)
    connected = disconnected = 0
    for blocks in [shared, *zigzag(a.blocks, b.blocks)]:
        for block in blocks:
            result = chain.add_block(block)
            assert result.status in ("active", "side")
            connected += len(result.connected)
            disconnected += len(result.disconnected)
    distinct = len(shared) + len(a.blocks) + len(b.blocks)
    assert chain.tip.hash == b.blocks[-1].hash
    assert sorted(connects) == sorted(
        block.hash for block in shared + a.blocks + b.blocks)
    assert len(connects) == distinct == 17
    # Each first connect commits one view (one apply_delta); every other
    # connect is a replay, and every disconnect one revert.
    assert calls == {"apply_delta": connected, "revert_delta": disconnected}
    assert connected > distinct
    # Only a disconnected block keeps the entries it created; a connected
    # block's are in the set.
    for block in shared + a.blocks + b.blocks:
        record = chain.record_for(block.hash)
        assert (record.added is None) == chain.is_active(block.hash)


def test_a_descendant_of_a_failed_block_is_refused_before_any_work(
        monkeypatch):
    """A 6-block active chain, and a branch forked at height 1 whose
    fourth block (height 5) fails: the reorg onto it fails once.  Its
    descendants are refused without a disconnect or a connect, and so is
    a child of a side block stored on the failed one before it failed."""
    chain = Chain(PARAMS, verify_scripts=False)
    active = Branch(chain.genesis.hash, 0, {})
    for tag in range(1, 7):
        chain.add_block(active.grow(tag, [tag]))
    fork = Branch(active.blocks[0].hash, 1, {})
    fork.model = {op: UTXOEntry(out, 1, True) for op, out in zip(
        active.blocks[0].transactions[0].outpoints,
        active.blocks[0].transactions[0].outputs)}
    for tag in range(12, 18):
        fork.grow(tag, [tag], invalid=tag == 15)
    sibling = Branch(fork.blocks[3].hash, 5, {}).grow(30, [])
    for block in [*fork.blocks[:-1], sibling]:
        assert chain.add_block(block).status == "side"
    undone = []
    undo_block = Chain._undo_block

    def counting_undo(self, record):
        undone.append(record.hash)
        return undo_block(self, record)

    monkeypatch.setattr(Chain, "_undo_block", counting_undo)
    tip, state = chain.tip.hash, list(chain.utxos.items())
    with pytest.raises(ValidationError):
        chain.add_block(fork.blocks[-1])
    # Five disconnected, three connected and undone, five replayed.
    assert len(undone) == 8
    assert chain.tip.hash == tip and list(chain.utxos.items()) == state
    connects = count_connects(chain)
    undone.clear()
    # Children of the tip, of the block below it and of the failed block.
    for tag, parent in enumerate(reversed(fork.blocks[3:]), start=20):
        child = Branch(parent.hash, 27 - tag, {}).grow(tag, [])
        with pytest.raises(ValidationError) as refusal:
            chain.add_block(child)
        assert undone == [] and connects == []
        assert "descends from an invalid block" in str(refusal.value)
        assert not chain.contains(child.hash)
    nephew = Branch(sibling.hash, 6, {}).grow(31, [])
    with pytest.raises(ValidationError, match="descends from an invalid"):
        chain.add_block(nephew)
    assert chain.record_for(nephew.hash).invalid
    with pytest.raises(ValidationError, match="descends from an invalid"):
        chain.add_block(Branch(nephew.hash, 7, {}).grow(32, []))
    assert undone == [] and connects == []
    assert chain.tip.hash == tip and list(chain.utxos.items()) == state
