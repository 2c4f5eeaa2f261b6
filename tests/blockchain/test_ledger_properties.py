"""Ledger properties: records, block deltas, failed connects, reorgs.

The UTXO set is keyed by :class:`OutPoint` and holds :class:`UTXOEntry`
tuple records; every dict and set operation on them hashes in C.  These
tests hold the ledger to what it promised before that: the same hashes,
order, ``repr`` and error text, the same state after any sequence of
forks, and a base set no failed connect can touch.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.chaos.verify import utxo_digest
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.utxo_reference import (apply_transaction,
                                          undo_transaction)

PARAMS = ChainParams()
LOCK = p2pkh_locking(b"\x07" * 20)

txids = st.binary(min_size=32, max_size=32)
indices = st.integers(min_value=0, max_value=0xFFFFFFFF)
outpoints = st.builds(OutPoint, txid=txids, index=indices)


# -- the records --------------------------------------------------------------

@given(txids, indices)
def test_outpoint_hashes_and_compares_as_its_tuple(txid, index):
    op = OutPoint(txid=txid, index=index)
    assert hash(op) == hash((txid, index))
    assert op == OutPoint(txid, index)
    assert (op.txid, op.index) == (txid, index)


@given(st.lists(outpoints, max_size=20))
def test_outpoint_sort_order_is_txid_then_index(ops):
    assert sorted(ops) == sorted(ops, key=lambda op: (op.txid, op.index))


def test_outpoint_repr_and_str():
    txid = bytes(range(32))
    op = OutPoint(txid=txid, index=7)
    assert repr(op) == f"OutPoint(txid={txid!r}, index=7)"
    assert str(op) == "0001020304050607..:7"


def test_entry_repr_str_and_fields():
    output = TxOutput(value=5, script_pubkey=LOCK)
    entry = UTXOEntry(output=output, height=3, is_coinbase=True)
    expected = f"UTXOEntry(output={output!r}, height=3, is_coinbase=True)"
    assert repr(entry) == str(entry) == expected
    assert entry.value == 5
    assert hash(entry) == hash((output, 3, True))


@pytest.mark.parametrize("record", [
    OutPoint(txid=b"\x05" * 32, index=2),
    UTXOEntry(output=TxOutput(value=9, script_pubkey=LOCK), height=4,
              is_coinbase=False),
])
def test_records_pickle_and_copy_round_trip(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)


def test_records_have_no_dict_and_are_immutable():
    op = OutPoint(txid=b"\x05" * 32, index=2)
    entry = UTXOEntry(output=TxOutput(value=9, script_pubkey=LOCK),
                      height=4, is_coinbase=False)
    for record in (op, entry):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.height = 1


def test_outpoint_constructor_validates_keywords_and_positionals():
    with pytest.raises(ValidationError, match="txid must be 32 bytes, got 3"):
        OutPoint(txid=b"abc", index=0)
    with pytest.raises(ValidationError,
                       match="output index out of range: -1"):
        OutPoint(txid=b"\x00" * 32, index=-1)
    with pytest.raises(ValidationError,
                       match="output index out of range: 4294967296"):
        OutPoint(b"\x00" * 32, 1 << 32)


def test_transaction_facts_are_computed_once():
    tx = coinbase(1, 0)
    assert tx.is_coinbase and tx.total_output_value == 50
    assert tx.outpoints == (OutPoint(tx.txid, 0),)
    assert {"is_coinbase", "total_output_value", "outpoints"} <= set(vars(tx))


# -- transactions and blocks for the ledger properties ---------------------------

def coinbase(height: int, tag: int) -> Transaction:
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height),
                                           encode_number(tag)]))],
        outputs=[TxOutput(value=50, script_pubkey=LOCK)],
    )


def spend(outpoints_: list[OutPoint], value: int,
          outputs: int = 2) -> Transaction:
    """Spend ``outpoints_`` (worth ``value``) into ``outputs`` outputs."""
    outputs = max(1, min(outputs, value))
    values = [value // outputs] * outputs
    values[0] += value - sum(values)
    return Transaction(
        inputs=[TxInput(outpoint=op) for op in outpoints_],
        outputs=[TxOutput(value=v, script_pubkey=LOCK) for v in values],
    )


def replay(model: dict[OutPoint, UTXOEntry], tx: Transaction,
           height: int) -> None:
    """The model ledger: plain dict operations, nothing under test."""
    if not tx.is_coinbase:
        for tx_input in tx.inputs:
            del model[tx_input.outpoint]
    for index, output in enumerate(tx.outputs):
        model[OutPoint(tx.txid, index)] = UTXOEntry(output, height,
                                                    tx.is_coinbase)


def mature(model: dict[OutPoint, UTXOEntry], height: int) -> list[OutPoint]:
    return sorted(op for op, entry in model.items()
                  if not entry.is_coinbase
                  or height - entry.height >= PARAMS.coinbase_maturity)


def build_block(parent: bytes, height: int, tag: int,
                model: dict[OutPoint, UTXOEntry], choices: list[int],
                ) -> tuple[Block, dict[OutPoint, UTXOEntry]]:
    """A valid block on ``parent`` spending outputs the ``choices`` pick
    from ``model`` (the parent's UTXO set); returns it with its own set."""
    model = dict(model)
    cb = coinbase(height, tag)
    txs = [cb]
    spendable = mature(model, height)
    for choice in choices:
        if not spendable:
            break
        op = spendable.pop(choice % len(spendable))
        txs.append(spend([op], model[op].value, outputs=1 + choice % 3))
    for tx in txs:
        replay(model, tx, height)
    return Block.assemble(prev_hash=parent, timestamp=float(tag),
                          transactions=txs), model


def funded_chain(blocks: int = 4) -> Chain:
    """A chain whose UTXO set holds coinbase and spent-into outputs."""
    chain = Chain(PARAMS, verify_scripts=False)
    model: dict[OutPoint, UTXOEntry] = {}
    for height in range(1, blocks + 1):
        block, model = build_block(chain.tip.hash, height, height, model,
                                   [height, 2 * height])
        chain.add_block(block)
    return chain


# -- forks, reorgs and failed reorgs ---------------------------------------------

steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.lists(st.integers(min_value=0, max_value=10**6),
                       max_size=3),
              st.booleans()),
    min_size=1, max_size=14)


@settings(max_examples=60, deadline=None)
@given(steps)
def test_any_fork_sequence_matches_a_replay_from_genesis(plan):
    """Blocks grown on arbitrary known parents -- some of them invalid,
    so reorgs also fail and restore -- leave the UTXO set of the active
    tip: exactly the model's, and the digest of a replay from genesis."""
    chain = Chain(PARAMS, verify_scripts=False)
    genesis = chain.genesis.hash
    order = [genesis]
    heights = {genesis: 0}
    # Invalid blocks and their descendants: feeding one may raise.
    tainted: set[bytes] = set()
    models: dict[bytes, dict[OutPoint, UTXOEntry]] = {genesis: {}}
    for tag, (parent_choice, choices, invalid) in enumerate(plan, start=1):
        parent = order[parent_choice % len(order)]
        height = heights[parent] + 1
        block, model = build_block(parent, height, tag, models[parent],
                                   choices)
        if invalid:
            missing = OutPoint(txid=tag.to_bytes(32, "big"), index=0)
            block = Block.assemble(
                prev_hash=parent, timestamp=float(tag),
                transactions=block.transactions + (spend([missing], 1),))
            model = models[parent]
        if invalid or parent in tainted:
            tainted.add(block.hash)
        try:
            chain.add_block(block)
        except ValidationError as exc:
            assert block.hash in tainted, exc
        order.append(block.hash)
        heights[block.hash] = height
        models[block.hash] = model
        assert dict(chain.utxos.items()) == models[chain.tip.hash]

    fresh = Chain(PARAMS, verify_scripts=False)
    results = fresh.add_blocks(
        [block for _, block in chain.iter_active_blocks(1)])
    assert all(result.status == "active" for result in results)
    assert fresh.tip.hash == chain.tip.hash
    assert utxo_digest(fresh) == utxo_digest(chain)


# -- block deltas: apply, revert, replay -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                max_size=4),
       st.integers(min_value=1, max_value=3),
       st.booleans())
def test_apply_then_undo_restores_the_set_exactly(choices, outputs, chained):
    """A view's committed delta -- one spend, then maybe a second one of
    the first's outputs -- holds the spent base entries and the created
    ones.  Reverting it leaves the set the per-transaction undo of the
    oracle leaves, order and objects included; replaying it gives back
    the committed set."""
    utxos = funded_chain().utxos
    before = list(utxos.items())
    held = dict(before)
    pool = sorted(held)
    picked = sorted({pool[c % len(pool)] for c in choices})
    tx = spend(picked, sum(held[op].value for op in picked), outputs)
    txs = [tx, spend([tx.outpoints[-1]], tx.outputs[-1].value)][:1 + chained]

    view = UTXOView(utxos)
    for each in txs:
        apply_transaction(view, each, height=9)
    spent, added = view.commit()
    assert list(spent) == list(reversed(picked))
    assert all(spent[op] is held[op] for op in picked)
    consumed = {op.outpoint for each in txs[1:] for op in each.inputs}
    assert list(added) == [op for each in txs for op in each.outpoints
                           if op not in consumed]
    committed = list(utxos.items())

    oracle = UTXOSet()
    for op, entry in before:
        oracle.add(op, entry)
    undo = [apply_transaction(oracle, each, height=9) for each in txs]
    assert list(oracle.items()) == committed
    for each, record in zip(reversed(txs), reversed(undo)):
        undo_transaction(oracle, each, record)

    utxos.revert_delta(spent, added)
    after = list(utxos.items())
    assert after == list(oracle.items())
    assert dict(after) == held
    assert all(entry is held[op] for op, entry in after)
    utxos.apply_delta(spent, added)
    assert list(utxos.items()) == committed


# -- a failed connect touches nothing ---------------------------------------------

FAILURES = ("missing", "double-spend", "overspend", "duplicate-output")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAILURES), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=10**6))
def test_failed_connect_leaves_the_base_set_bit_for_bit(failure, position,
                                                        choice):
    chain = funded_chain()
    utxos = chain.utxos
    before = dict(utxos.items())
    height = chain.height + 1
    pool = mature(before, height)
    txs = [coinbase(height, 99)]
    spent_ops = []
    for _ in range(position):
        op = pool.pop(choice % len(pool))
        spent_ops.append(op)
        txs.append(spend([op], before[op].value))
    if failure == "missing":
        bad = spend([OutPoint(txid=b"\xee" * 32, index=0)], 1)
    elif failure == "double-spend":
        op = spent_ops[0] if spent_ops else pool[choice % len(pool)]
        if not spent_ops:
            txs.append(spend([op], before[op].value))
        bad = spend([op], before[op].value, outputs=3)
    elif failure == "overspend":
        op = pool[choice % len(pool)]
        bad = spend([op], before[op].value + 1)
    else:
        # Re-creating an output the set holds: the tip's coinbase again,
        # unspent because it is not mature yet.
        bad = None
        txs[0] = coinbase(chain.height, chain.height)
    if bad is not None:
        txs.append(bad)
    block = Block.assemble(prev_hash=chain.tip.hash, timestamp=99.0,
                           transactions=txs)
    with pytest.raises(ValidationError):
        chain.engine.connect_block(block, utxos, height)
    after = dict(utxos.items())
    assert after == before
    assert all(after[op] is before[op] for op in before)


# -- an overlay commits what it shows, or nothing -----------------------------------

# The transaction creating each pool outpoint.
MAKERS = [Transaction(
    inputs=[TxInput(COINBASE_OUTPOINT, Script([bytes([k])]))],
    outputs=[TxOutput(1, LOCK)]) for k in range(1, 7)]
VIEW_POOL = [maker.outpoints[0] for maker in MAKERS]
view_steps = st.lists(
    st.tuples(st.sampled_from(("add", "remove", "base-add", "base-remove")),
              st.integers(min_value=0, max_value=len(VIEW_POOL) - 1)),
    max_size=24)


@settings(max_examples=200, deadline=None)
@given(view_steps)
# A base outpoint removed, then re-created, inside the overlay.
@example([("remove", 1), ("remove", 0), ("add", 0)])
# A stale view: the set gains an outpoint the overlay already added.
@example([("remove", 1), ("add", 3), ("base-add", 3)])
def test_commit_writes_what_the_view_shows_or_nothing(plan):
    """Transactions applied to a view over a set -- a pool outpoint's own
    creating transaction, or a spend of it -- and adds and removes on the
    set itself after the view was built, which make the view stale.  A
    commit leaves the set holding exactly what the view showed at every
    outpoint the view touched, and the rest as it was; or it raises
    :class:`ValidationError` and leaves the set bit-for-bit unchanged."""
    utxos = UTXOSet()
    for op in VIEW_POOL[:3]:
        utxos.add(op, UTXOEntry(TxOutput(1, LOCK), 0, False))
    view = UTXOView(utxos)
    watched = list(VIEW_POOL)
    touched: set[OutPoint] = set()
    for serial, (action, pick) in enumerate(plan):
        op = VIEW_POOL[pick]
        try:
            if action == "base-add":
                utxos.add(op, UTXOEntry(TxOutput(serial, LOCK), serial,
                                        False))
            elif action == "base-remove":
                utxos.apply_delta({op: utxos.get(op)}, {})
            else:
                tx = MAKERS[pick] if action == "add" else Transaction(
                    inputs=[TxInput(op)], outputs=[TxOutput(serial, LOCK)])
                apply_transaction(view, tx, serial)
                touched.add(op)
                touched.update(tx.outpoints)
                watched.extend(new for new in tx.outpoints
                               if new not in watched)
        except ValidationError:
            continue
    shown = {op: view.get(op) for op in watched}
    before = list(utxos.items())
    try:
        view.commit()
    except ValidationError:
        after = list(utxos.items())
        assert after == before
        assert all(a[1] is b[1] for a, b in zip(after, before))
        return
    untouched = dict(before)
    for op in watched:
        expected = shown[op] if op in touched else untouched.get(op)
        assert utxos.get(op) is expected
    assert len(utxos) == sum(utxos.get(op) is not None for op in watched)


# -- the error text, pinned -------------------------------------------------------

def test_missing_and_double_spent_inputs_raise_the_same_text():
    chain = funded_chain()
    height = chain.height + 1
    live = mature(dict(chain.utxos.items()), height)[0]
    value = chain.utxos.get(live).value
    ghost = OutPoint(txid=b"\xab" * 32, index=1)
    other = OutPoint(txid=b"\xcd" * 32, index=0)

    # Block connect: the contextual stage names the first missing input.
    block = Block.assemble(
        prev_hash=chain.tip.hash, timestamp=99.0,
        transactions=[coinbase(height, 99), spend([live, ghost], value)])
    with pytest.raises(ValidationError) as error:
        chain.engine.connect_block(block, chain.utxos, height)
    assert str(error.value) == (
        "input abababababababab..:1 not in UTXO set "
        "(spent or never existed)")

    # A second spend of one outpoint in a block: the same contextual text.
    first, second = spend([live], value), spend([live], value, outputs=1)
    block = Block.assemble(
        prev_hash=chain.tip.hash, timestamp=99.0,
        transactions=[coinbase(height, 99), first, second])
    with pytest.raises(ValidationError) as error:
        chain.engine.connect_block(block, chain.utxos, height)
    assert str(error.value) == (
        f"input {live.txid.hex()[:16]}..:{live.index} not in UTXO set "
        f"(spent or never existed)")

    # The overlay and the set list every missing input.
    tx = spend([ghost, live, other], value)
    for ledger in (UTXOView(chain.utxos), chain.utxos):
        with pytest.raises(ValidationError) as error:
            apply_transaction(ledger, tx, height)
        assert str(error.value) == (
            f"transaction {tx.txid.hex()[:16]}.. spends missing outputs: "
            f"abababababababab..:1, cdcdcdcdcdcdcdcd..:0")

    # One outpoint twice in one transaction, past the syntax stage.
    twice = spend([live, live], value)
    for ledger in (UTXOView(chain.utxos), chain.utxos):
        with pytest.raises(ValidationError) as error:
            apply_transaction(ledger, twice, height)
        assert str(error.value) == (
            f"missing UTXO: {live.txid.hex()[:16]}..:{live.index}")
    # An output created earlier in the same view, spent twice by one
    # transaction: refused at apply, not left for the commit to find.
    first = spend([live], value)
    view = UTXOView(chain.utxos)
    apply_transaction(view, first, height)
    chained = first.outpoints[0]
    with pytest.raises(ValidationError) as error:
        apply_transaction(view, spend([chained, chained], value), height)
    assert str(error.value) == f"missing UTXO: {chained}"
    with pytest.raises(ValidationError) as error:
        chain.engine.check_transaction_syntax(twice)
    assert str(error.value) == (
        f"duplicate input {live} in {twice.txid.hex()[:16]}..")

    # Spending from a set that no longer holds the output.
    with pytest.raises(ValidationError) as error:
        chain.utxos.apply_delta({ghost: None}, {})
    assert str(error.value) == "missing UTXO: abababababababab..:1"
