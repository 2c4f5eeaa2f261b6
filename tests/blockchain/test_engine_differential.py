"""Differential conformance suite: batch vs unbatched verification.

A module-scoped *bank* pre-signs a zoo of candidate spends — valid and
invalid P2PKH, high-S malleated twins, RSA key-release claims (good and
bad eSk), CLTV refunds (rightful and wrong-key), multi-input mixes,
double-spends, and contextual overspends.  Property-based tests then
assemble blocks from random subsets/orderings of those candidates and
assert the engine's cross-input batch path (``connect_block``,
``Mempool.accept``) and the unbatched reference in
``tests/oracles/engine_reference.py`` — the contextual stage, then
one input straight through the interpreter at a time, then
``tests/oracles/utxo_reference.py``'s ``apply_transaction`` on the view,
with no verdict memo — return
**byte-identical** outcomes: the same accept/reject verdict, the same
error string, the same script lookups (hits and misses), and the same
UTXO digest.

Every comparison then repeats on engines that *share* a
:class:`~repro.blockchain.sigbatch.VerdictMemo` — one unbounded, one
bounded to four entries so it evicts constantly — two engines in a row:
whatever an earlier engine, example or test left in the memo, the verdict,
error string and digest are the private-memo ones, and the engine runs no
more scripts than a private one does (a script success another engine
stored is a hit).

The ``determinism``-named tests double as the CI flake guard (run under
``pytest --count=3`` in the ``throughput`` job).
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block
from repro.blockchain.engine import ValidationEngine
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.sigbatch import ECDSA, SCRIPT, VerdictMemo
from repro.blockchain.transaction import (OutPoint, Transaction, TxInput,
                                           TxOutput)
from repro.blockchain.utxo import UTXOSet
from repro.blockchain.wallet import Wallet
from repro.chaos.verify import chain_digest, utxo_digest
from repro.crypto import ecdsa, rsa
from repro.crypto.ecdsa import CURVE_ORDER, Signature
from repro.crypto.hashing import hash160
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script import builder
from repro.script.script import Script
from tests.oracles.engine_reference import EngineReference
from tests.oracles.coin_selection_reference import spendable

# Candidate labels are documentation; the differential property only cares
# that the two paths agree, whatever the verdict.
Candidate = tuple[str, Transaction]


@pytest.fixture(scope="module")
def bank():
    """A funded chain plus ~20 pre-signed candidate spends."""
    rng = random.Random(0xD1FF)
    params = ChainParams(coinbase_maturity=1, locktime_grace=3)
    node = FullNode(params, "diff-bank")
    buyer = Wallet(node.chain, KeyPair.generate(rng))
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    buyer.watch_chain()
    gateway.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=buyer.pubkey_hash)
    for i in range(4):
        miner.mine_and_connect(float(i))

    # Give the buyer many small coins so every candidate spends a
    # distinct outpoint.
    node.mempool.accept(buyer.create_fanout(buyer.pubkey_hash, 1_000, 12))
    miner.mine_and_connect(10.0)

    rsa_key = rsa.generate_keypair(512, rng)
    rsa_wrong = rsa.generate_keypair(512, rng)
    offers = {
        name: buyer.create_key_release_offer(
            rsa_key.public_key.to_bytes(), gateway.pubkey_hash, 300)
        for name in ("claim", "badclaim", "refund", "wrongkey", "wrongpair")
    }
    for offer in offers.values():
        node.mempool.accept(offer.transaction)
    # Coins locked to the hash of 33 bytes that are no curve point: the
    # spend reaches OP_CHECKSIG and the pubkey fails to parse there.
    off_curve = next(
        candidate for candidate in (
            b"\x02" + x.to_bytes(32, "big") for x in range(1, 50))
        if _unparseable(candidate))
    bad_pubkeys = {"badprefix": b"\x05" + bytes(32), "offcurve": off_curve}
    bad_pubkey_coins = {}
    for name, pubkey in bad_pubkeys.items():
        funding = buyer.create_payment(hash160(pubkey), 700)
        node.mempool.accept(funding)
        bad_pubkey_coins[name] = funding
    miner.mine_and_connect(11.0)
    # Pass every refund locktime (offers default to height+grace).
    while node.chain.height <= max(o.refund_locktime for o in offers.values()):
        miner.mine_and_connect(float(node.chain.height) + 12.0)

    locking = builder.p2pkh_locking(buyer.pubkey_hash)

    def take_coin():
        """Claim an unused buyer coin for a hand-rolled transaction."""
        outpoint, value = spendable(buyer)[0]
        buyer._pending_spends.add(outpoint)
        return outpoint, value

    def corrupt_first_sig(tx, index=0):
        elements = list(tx.inputs[index].script_sig.elements)
        elements[0] = bytes([elements[0][0] ^ 0x01]) + elements[0][1:]
        return tx.with_input_script(index, Script(elements))

    candidates: list[Candidate] = []
    for i in range(3):
        candidates.append(
            (f"p2pkh-valid-{i}",
             buyer.create_payment(gateway.pubkey_hash, 150 + i)))

    # A conflicting spend of the same outpoint as p2pkh-valid-0: a script
    # success whose *contextual* fate depends on block composition.
    conflict_outpoint = candidates[0][1].inputs[0].outpoint
    conflict = Transaction(
        inputs=[TxInput(outpoint=conflict_outpoint)],
        outputs=[TxOutput(value=999,
                          script_pubkey=builder.p2pkh_locking(
                              gateway.pubkey_hash))],
    )
    signature = buyer.sign_input(conflict, 0, locking)
    conflict = conflict.with_input_script(
        0, builder.p2pkh_unlocking(signature, buyer.pubkey_bytes))
    candidates.append(("p2pkh-conflict", conflict))

    for i in range(2):
        candidates.append(
            (f"p2pkh-badsig-{i}",
             corrupt_first_sig(
                 buyer.create_payment(gateway.pubkey_hash, 170 + i))))

    # Signed by the wrong key entirely: HASH160 mismatch in the locking
    # script, not a bad signature.
    outpoint, value = take_coin()
    wrongkey = Transaction(
        inputs=[TxInput(outpoint=outpoint)],
        outputs=[TxOutput(value=value,
                          script_pubkey=builder.p2pkh_locking(
                              gateway.pubkey_hash))],
    )
    signature = gateway.sign_input(wrongkey, 0, locking)
    wrongkey = wrongkey.with_input_script(
        0, builder.p2pkh_unlocking(signature, gateway.pubkey_bytes))
    candidates.append(("p2pkh-wrongkey", wrongkey))

    # High-S malleated twin: consensus-valid everywhere, policy-invalid at
    # the mempool (exercised in the mempool differential below).
    highs = buyer.create_payment(gateway.pubkey_hash, 180)
    sig_bytes, pubkey = highs.inputs[0].script_sig.elements
    parsed = Signature.from_bytes(sig_bytes)
    malleated = Signature(r=parsed.r, s=CURVE_ORDER - parsed.s)
    candidates.append(
        ("p2pkh-highs",
         highs.with_input_script(0, Script([malleated.to_bytes(), pubkey]))))

    candidates.append(
        ("claim-valid",
         gateway.claim_key_release(offers["claim"], rsa_key.to_bytes())))
    # Wrong eSk: OP_CHECKRSA512PAIR fails, execution falls into the CLTV
    # refund branch, which the claim tx (locktime 0, final sequence)
    # cannot satisfy.
    candidates.append(
        ("claim-bad-esk",
         gateway.claim_key_release(offers["badclaim"],
                                   rsa_wrong.to_bytes())))
    candidates.append(
        ("refund-valid", buyer.refund_key_release(offers["refund"])))
    # The gateway trying to take the refund branch: CLTV satisfied but the
    # buyer-pubkey-hash check fails.
    candidates.append(
        ("refund-wrongkey", gateway.refund_key_release(offers["wrongkey"])))

    # A well-formed RSA key that is not the pair: OP_CHECKRSA512PAIR
    # computes False and the buyer's refund arm is taken.
    wrongpair = buyer.refund_key_release(offers["wrongpair"])
    elements = list(wrongpair.inputs[0].script_sig.elements)
    elements[2] = rsa_wrong.to_bytes()
    candidates.append(
        ("refund-wrongpair", wrongpair.with_input_script(0, Script(elements))))

    for name, pubkey in bad_pubkeys.items():
        funding = bad_pubkey_coins[name]
        spend = Transaction(
            inputs=[TxInput(outpoint=OutPoint(txid=funding.txid, index=0))],
            outputs=[TxOutput(value=600,
                              script_pubkey=builder.p2pkh_locking(
                                  gateway.pubkey_hash))],
        )
        signature = buyer.sign_input(spend, 0,
                                     funding.outputs[0].script_pubkey)
        candidates.append(
            (f"p2pkh-pubkey-{name}",
             spend.with_input_script(
                 0, builder.p2pkh_unlocking(signature, pubkey))))

    def multi_input(amounts, corrupt_index=None):
        coins = [take_coin() for _ in amounts]
        tx = Transaction(
            inputs=[TxInput(outpoint=op) for op, _ in coins],
            outputs=[TxOutput(value=sum(v for _, v in coins) - 10,
                              script_pubkey=builder.p2pkh_locking(
                                  gateway.pubkey_hash))],
        )
        for index in range(len(coins)):
            signature = buyer.sign_input(tx, index, locking)
            tx = tx.with_input_script(
                index, builder.p2pkh_unlocking(signature, buyer.pubkey_bytes))
        if corrupt_index is not None:
            tx = corrupt_first_sig(tx, corrupt_index)
        return tx

    candidates.append(("multi-valid", multi_input([0, 1])))
    candidates.append(("multi-badsecond", multi_input([0, 1],
                                                     corrupt_index=1)))

    # Outputs exceed inputs: a *contextual* failure raised before any
    # script runs for that transaction.
    outpoint, value = take_coin()
    overspend = Transaction(
        inputs=[TxInput(outpoint=outpoint)],
        outputs=[TxOutput(value=value + 12_345,
                          script_pubkey=builder.p2pkh_locking(
                              gateway.pubkey_hash))],
    )
    signature = buyer.sign_input(overspend, 0, locking)
    overspend = overspend.with_input_script(
        0, builder.p2pkh_unlocking(signature, buyer.pubkey_bytes))
    candidates.append(("overspend", overspend))

    # Shared by every engine the harness builds, across examples and
    # tests: the bounded one evicts on nearly every block.
    memos = (VerdictMemo(), bounded_memo(4))
    return SimpleNamespace(params=params, node=node, miner=miner,
                           buyer=buyer, gateway=gateway,
                           candidates=candidates, memos=memos)


def _unparseable(pubkey: bytes) -> bool:
    try:
        ecdsa.PublicKey.from_bytes(pubkey)
    except ecdsa.ECDSAError:
        return True
    return False


# -- harness -----------------------------------------------------------------


def _replica_utxos(bank) -> UTXOSet:
    replica = UTXOSet()
    for outpoint, entry in bank.node.chain.utxos.items():
        replica.add(outpoint, entry)
    return replica


def _unbatch_admission(engine) -> None:
    """Make ``Mempool.accept`` on this engine verify input-at-a-time."""
    engine.verify_input_scripts = EngineReference(engine).verify_input_scripts


def _connect_outcome(bank, engine, txs, reference=False) -> tuple:
    """Run one block connect and flatten *everything* observable into
    ``(verdict, lookups)``: what the chain sees, and the host work of the
    script stage (the connect's ``cache_stats`` hits and misses).

    ``reference=True`` runs the unbatched reference in place of the
    engine's batch ``connect_block``.
    """
    height = bank.node.chain.height + 1
    block = Block.assemble(
        prev_hash=bank.node.chain.tip.hash,
        timestamp=99.0,
        transactions=[bank.miner.build_coinbase(height, 0), *txs],
    )
    utxos = _replica_utxos(bank)
    before = replace(engine.cache_stats)
    try:
        if reference:
            total_fees = EngineReference(engine).connect_block(block, utxos,
                                                               height)
        else:
            total_fees = engine.connect_block(block, utxos,
                                              height).total_fees
    except ValidationError as exc:
        verdict = ("err", str(exc))
    else:
        verdict = ("ok", total_fees)
    digest = utxo_digest(SimpleNamespace(utxos=utxos))
    stats = engine.cache_stats
    return ((*verdict, engine.policy.stats.fast_rejects, digest),
            (stats.hits - before.hits, stats.misses - before.misses))


def _engine(bank, memo=None) -> ValidationEngine:
    """A fresh engine; on ``memo`` when given, else on its private one."""
    engine = ValidationEngine(bank.params, verify_scripts=True)
    if memo is not None:
        engine.verdict_memo = memo
    return engine


def _differential(bank, txs) -> tuple:
    """Batch vs reference on private memos, then batch on each shared
    memo twice; returns the verdict."""
    labels = [label for label, tx in bank.candidates if tx in txs]
    batch = _connect_outcome(bank, _engine(bank), txs)
    unbatched = _connect_outcome(bank, _engine(bank), txs, reference=True)
    assert batch == unbatched, (
        f"batch/unbatched divergence for {labels}: "
        f"\n  batch:     {batch}\n  unbatched: {unbatched}"
    )
    verdict, (_hits, misses) = batch
    # Shared memos: the second engine of each pair (and every later
    # example) meets verdicts it did not compute.
    for memo in bank.memos:
        for _ in range(2):
            shared, lookups = _connect_outcome(bank, _engine(bank, memo), txs)
            assert shared == verdict, (
                f"shared-memo divergence (bound {memo.MAX_ENTRIES}) for "
                f"{labels}: \n  private: {verdict}\n  shared:  {shared}"
            )
            assert lookups[1] <= misses, (labels, lookups, batch)
    return verdict


# -- properties --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_differential_random_blocks(bank, data):
    """Any subset, in any order: identical verdict, error, and digest."""
    count = len(bank.candidates)
    indices = data.draw(st.lists(st.sampled_from(range(count)),
                                 unique=True, min_size=1, max_size=8))
    txs = [bank.candidates[i][1] for i in indices]
    _differential(bank, txs)


def test_differential_seeded_sweep(bank):
    """A further 100 seeded shuffles, pushing total coverage past 200."""
    count = len(bank.candidates)
    verdicts = set()
    for seed in range(100):
        rng = random.Random(seed)
        size = rng.randint(1, count)
        indices = rng.sample(range(count), size)
        txs = [bank.candidates[i][1] for i in indices]
        verdicts.add(_differential(bank, txs)[0])
    # The sweep must exercise both accepting and rejecting blocks.
    assert verdicts == {"ok", "err"}


def test_differential_named_singletons(bank):
    """Every candidate alone in a block: agreement per flavour."""
    expected_ok = {
        "p2pkh-valid-0", "p2pkh-valid-1", "p2pkh-valid-2",
        "p2pkh-conflict", "p2pkh-highs", "claim-valid", "refund-valid",
        "refund-wrongpair", "multi-valid",
    }
    for label, tx in bank.candidates:
        outcome = _differential(bank, [tx])
        assert (outcome[0] == "ok") == (label in expected_ok), (
            f"{label}: unexpected verdict {outcome}"
        )


def test_differential_script_error_beats_later_contextual(bank):
    """Orderings that race a script failure against a contextual one."""
    by_label = dict(bank.candidates)
    valid = by_label["p2pkh-valid-0"]
    conflict = by_label["p2pkh-conflict"]
    badsig = by_label["p2pkh-badsig-0"]
    for txs in ([valid, badsig, conflict],
                [valid, conflict, badsig],
                [badsig, valid, conflict],
                [conflict, valid, badsig]):
        outcome = _differential(bank, txs)
        assert outcome[0] == "err"


def test_differential_mempool_admission(bank):
    """Every candidate through batch vs unbatched mempool admission on
    private memos, then through nodes on each shared memo: one verdict
    and reason everywhere, equal lookups on the private nodes, and no
    more scripts run on a shared one."""
    params = bank.params

    def replay(memo=None, unbatched=False):
        node = FullNode(params, "diff-replay")
        if memo is not None:
            node.engine.verdict_memo = memo
        for _height, block in bank.node.chain.iter_active_blocks(
                start_height=1):
            node.chain.add_block(block)
        if unbatched:
            _unbatch_admission(node.engine)
        return node

    private = [replay(), replay(unbatched=True)]
    shared = [replay(memo, unbatched=unbatched) for memo in bank.memos
              for unbatched in (False, True, False)]
    for label, tx in bank.candidates:
        outcomes, lookups = [], []
        for node in private + shared:
            result = node.mempool.accept(tx)
            stats = node.engine.cache_stats
            lookups.append((stats.hits, stats.misses))
            fast_rejects = node.engine.policy.stats.fast_rejects
            if result.accepted:
                outcomes.append(("ok", tx.txid in node.mempool,
                                 fast_rejects))
                node.mempool.remove(tx.txid)
            else:
                outcomes.append(("err", result.reason, fast_rejects))
        assert outcomes.count(outcomes[0]) == len(outcomes), (
            f"{label}: mempool divergence {outcomes}"
        )
        assert lookups[0] == lookups[1], (label, lookups)
        assert all(misses <= lookups[0][1]
                   for _hits, misses in lookups[2:]), (label, lookups)
        if label == "p2pkh-highs":
            assert outcomes[0][0] == "err"
            assert "high-S" in outcomes[0][1]


# -- the verdict memo itself ---------------------------------------------------


def bounded_memo(bound):
    """A verdict memo that evicts past ``bound`` entries."""
    memo = VerdictMemo()
    memo.MAX_ENTRIES = bound
    return memo


def test_shared_memo_verifies_each_signature_once_and_the_bound_evicts(bank):
    """What the shared runs above rely on, from the memos' own counters."""
    unbounded, tiny = (VerdictMemo(), bounded_memo(4))
    txs = [tx for _label, tx in bank.candidates]
    private = {tx.txid: _connect_outcome(bank, _engine(bank), [tx])[0]
               for tx in txs}
    for memo in (unbounded, tiny):
        for _ in range(2):
            for tx in txs:
                verdict, _lookups = _connect_outcome(
                    bank, _engine(bank, memo), [tx])
                # Same verdicts as engines that share nothing.
                assert verdict == private[tx.txid]
    # Unbounded: two passes over the zoo.  Every script that succeeded
    # ran once and was answered the second time; a failing one ran
    # both times and was never stored.
    assert unbounded.evictions == {ECDSA: 0, SCRIPT: 0}
    scripts = [key for key in unbounded._verdicts if key[0] == SCRIPT]
    assert len(scripts) == unbounded.misses[SCRIPT] \
        == unbounded.hits[SCRIPT] > 0
    assert all(unbounded._verdicts[key] is True for key in scripts)
    # One execution per distinct signature check, True and False alike.
    assert unbounded.misses[ECDSA] == sum(
        1 for key in unbounded._verdicts if key[0] == ECDSA)
    # p2pkh-wrongkey fails at OP_EQUALVERIFY: the batch layer verified its
    # signature ahead of an OP_CHECKSIG that never ran.
    assert len(unbounded._prefetched) == 1
    # The second pass runs only the failing spends again, so its only
    # signature reads are theirs: the False verdicts.
    assert unbounded.hits[ECDSA] == sum(
        1 for key, verdict in unbounded._verdicts.items()
        if key[0] == ECDSA and verdict is False)
    assert False in unbounded._verdicts.values()
    # Bounded to four: it evicted, re-verified, and never grew.
    assert len(tiny) == 4
    assert all(tiny.evictions[kind] > 0 for kind in (ECDSA, SCRIPT))
    assert tiny.misses[ECDSA] > unbounded.misses[ECDSA]


_MEMO_KEYS = [KeyPair.generate(random.Random(seed)) for seed in (1, 2, 3)]
_FLAVOURS = ("valid", "high-s", "flipped", "random", "other-key",
             "bad-prefix")


def _memo_triple(key_index: int, digest: bytes, flavour: str,
                 noise: bytes) -> tuple[bytes, bytes, bytes]:
    """One ``(pubkey_bytes, digest, signature_bytes)`` of a given flavour."""
    key = _MEMO_KEYS[key_index]
    pubkey = key.public_key.to_bytes()
    signature = key.sign(digest)
    if flavour == "high-s":
        signature = Signature(r=signature.r, s=CURVE_ORDER - signature.s)
    sig_bytes = signature.to_bytes()
    if flavour == "flipped":
        sig_bytes = bytes([sig_bytes[0] ^ 1]) + sig_bytes[1:]
    elif flavour == "random":
        sig_bytes = noise
    elif flavour == "other-key":
        other = _MEMO_KEYS[(key_index + 1) % len(_MEMO_KEYS)]
        pubkey = other.public_key.to_bytes()
    elif flavour == "bad-prefix":
        pubkey = b"\x05" + pubkey[1:]
    return pubkey, digest, sig_bytes


@settings(max_examples=60, deadline=None)
@given(
    draws=st.lists(
        st.tuples(st.integers(0, len(_MEMO_KEYS) - 1),
                  st.binary(min_size=32, max_size=32),
                  st.sampled_from(_FLAVOURS),
                  st.binary(min_size=64, max_size=64)),
        min_size=1, max_size=6),
    repeats=st.lists(st.integers(0, 5), max_size=8),
    bound=st.integers(1, 8),
)
def test_memo_answers_equal_direct_verification(draws, repeats, bound):
    """Arbitrary triples, asked in any order with repeats, through a memo
    of any bound: every answer is ``PublicKey.verify``'s and
    ``verify_batch``'s."""
    triples = [_memo_triple(*draw) for draw in draws]
    expected = {}
    for triple in triples:
        pubkey, digest, sig_bytes = triple
        try:
            parsed = (ecdsa.PublicKey.from_bytes(pubkey), digest,
                      Signature.from_bytes(sig_bytes))
        except ecdsa.ECDSAError:
            expected[triple] = None  # unparseable: False, and not memoised
            continue
        expected[triple] = parsed[0].verify(digest, parsed[2])
        assert ecdsa.verify_batch([parsed]) == [expected[triple]]
    memo = bounded_memo(bound)
    asked = triples + [triples[i % len(triples)] for i in repeats]
    for triple in asked:
        assert memo.check_ecdsa(*triple) == bool(expected[triple])
        assert len(memo) <= bound
    assert memo.hits[ECDSA] + memo.misses[ECDSA] == sum(
        expected[triple] is not None for triple in asked)


# -- determinism guards (run under --count=3 in CI) --------------------------


def test_determinism_batch_repeat(bank):
    """The same mixed block, three fresh script-verifying engines:
    identical outcomes, and each ran the batch script stage."""
    txs = [tx for _label, tx in bank.candidates[:6]]
    outcomes = {
        _connect_outcome(bank, _engine(bank), txs) for _ in range(3)
    }
    assert len(outcomes) == 1
    (_verdict, (_hits, misses)), = outcomes
    assert misses > 0


def test_determinism_full_chain_replay(bank):
    """Replaying the whole bank chain, batch ``add_block`` vs the
    unbatched reference from genesis: equal digests and counters."""
    node = FullNode(replace(bank.params, verify_blocks=True),
                    "replay-batch")
    reference_engine = ValidationEngine(bank.params)
    reference = EngineReference(reference_engine)
    reference_utxos = UTXOSet()
    for height, block in bank.node.chain.iter_active_blocks(start_height=1):
        node.chain.add_block(block)
        reference.connect_block(block, reference_utxos, height)
    assert chain_digest(node.chain) == chain_digest(bank.node.chain)
    assert utxo_digest(node.chain) == utxo_digest(bank.node.chain)
    assert utxo_digest(node.chain) == utxo_digest(
        SimpleNamespace(utxos=reference_utxos))
    batch_stats = node.engine.cache_stats
    reference_stats = reference_engine.cache_stats
    assert (batch_stats.hits, batch_stats.misses) == (
        reference_stats.hits, reference_stats.misses)
    assert batch_stats.misses > 0
