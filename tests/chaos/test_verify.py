"""assert_converged and the state digests."""

from __future__ import annotations

import pytest

from repro.chaos import assert_converged, build_federation
from repro.chaos.verify import chain_digest, utxo_digest


def synced_federation(blocks=2):
    fed = build_federation(size=3, seed=13)
    miner = fed.make_miner("gw-0", key_seed=2)
    for i in range(blocks):
        def job(i=i):
            block = miner.mine_and_connect(float(i))
            fed.daemons["gw-0"].gossip.broadcast_block(block)
        fed.sim.call_at(1.0 + i, job)
    fed.sim.run(until=20.0)
    return fed


def test_converged_federation_produces_report():
    fed = synced_federation()
    report = assert_converged(fed.daemons)
    assert report.height == 2
    assert report.participants == ("gw-0", "gw-1", "gw-2")
    assert report.tip_hash == fed.daemons["gw-0"].node.chain.tip.hash
    assert len(report.chain_digest) == 64
    assert len(report.utxo_digest) == 64


def test_accepts_iterables_and_mappings():
    fed = synced_federation()
    from_mapping = assert_converged(fed.daemons)
    from_list = assert_converged(list(fed.daemons.values()))
    assert from_mapping == from_list


def test_divergence_raises_with_state_table():
    fed = synced_federation()
    # Secretly mine one more block on gw-2 only.
    lone = fed.make_miner("gw-2", key_seed=99)
    lone.mine_and_connect(50.0)
    with pytest.raises(AssertionError) as excinfo:
        assert_converged(fed.daemons)
    message = str(excinfo.value)
    assert "has not converged" in message
    assert "gw-0" in message and "gw-2" in message


def test_offline_daemon_fails_unless_excused():
    fed = synced_federation()
    fed.daemons["gw-1"].crash()
    with pytest.raises(AssertionError, match="offline"):
        assert_converged(fed.daemons)
    survivors = [d for d in fed.daemons.values() if d.online]
    report = assert_converged(survivors)
    assert report.participants == ("gw-0", "gw-2")


def test_empty_input_rejected():
    with pytest.raises(AssertionError, match="at least one"):
        assert_converged([])


def test_digests_are_insertion_order_independent():
    """Two nodes that heard blocks in different orders but agree on the
    active chain produce identical digests."""
    fed = synced_federation()
    chains = [daemon.node.chain for daemon in fed.daemons.values()]
    assert len({chain_digest(chain) for chain in chains}) == 1
    assert len({utxo_digest(chain) for chain in chains}) == 1


def test_digests_detect_utxo_and_chain_changes():
    fed = synced_federation()
    chain = fed.daemons["gw-0"].node.chain
    before_chain = chain_digest(chain)
    before_utxo = utxo_digest(chain)
    miner = fed.make_miner("gw-0", key_seed=7)
    miner.mine_and_connect(60.0)
    assert chain_digest(chain) != before_chain
    assert utxo_digest(chain) != before_utxo
