"""The on-chain IP directory (section 4.3)."""

from __future__ import annotations

import random

import pytest

from repro.core import directory
from repro.core.directory import (
    ANNOUNCEMENT_MAGIC,
    DirectoryView,
    build_announcement_payload,
    parse_announcement_payload,
)
from repro.crypto.keys import KeyPair
from repro.errors import ProtocolError


@pytest.fixture
def keypair(rng):
    return KeyPair.generate(rng)


def test_payload_roundtrip(keypair):
    payload = build_announcement_payload(keypair, "site-3")
    parsed = parse_announcement_payload(payload)
    assert parsed == (keypair.address, "site-3", 7264)


def test_payload_magic_prefix(keypair):
    payload = build_announcement_payload(keypair, "host")
    assert payload.startswith(ANNOUNCEMENT_MAGIC)


def test_forged_announcement_rejected(keypair, rng):
    """An attacker cannot bind someone else's address to their IP."""
    payload = bytearray(build_announcement_payload(keypair, "honest-host"))
    # Tamper with the endpoint bytes.
    index = payload.index(b"honest-host")
    payload[index:index + 6] = b"eviler"
    assert parse_announcement_payload(bytes(payload)) is None


def test_wrong_signature_rejected(keypair):
    payload = bytearray(build_announcement_payload(keypair, "host"))
    payload[-1] ^= 1
    assert parse_announcement_payload(bytes(payload)) is None


def test_foreign_op_return_ignored():
    assert parse_announcement_payload(b"some other application data") is None
    assert parse_announcement_payload(ANNOUNCEMENT_MAGIC + b"short") is None
    assert parse_announcement_payload(b"") is None


def test_build_validation(keypair, monkeypatch):
    with pytest.raises(ProtocolError):
        build_announcement_payload(keypair, "x" * 65)
    monkeypatch.setattr(directory, "ANNOUNCEMENT_PORT", 0)
    with pytest.raises(ProtocolError):
        build_announcement_payload(keypair, "host")
    monkeypatch.setattr(directory, "ANNOUNCEMENT_PORT", 70_000)
    with pytest.raises(ProtocolError):
        build_announcement_payload(keypair, "host")


def test_directory_view_resolves_announcement(funded_chain, rng):
    node, wallet, miner = funded_chain
    view = DirectoryView(node.chain)
    view.follow()
    payload = build_announcement_payload(wallet.keypair, "10.0.0.5")
    tx = wallet.create_announcement(payload)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(100.0)

    announcement = view.lookup(wallet.address)
    assert announcement is not None
    assert announcement.endpoint == "10.0.0.5"
    assert announcement.port == 7264
    assert announcement.txid == tx.txid


def test_directory_view_unknown_address(funded_chain):
    node, _wallet, _miner = funded_chain
    view = DirectoryView(node.chain)
    view.follow()
    assert view.lookup("Bnonexistent") is None


def test_latest_announcement_wins(funded_chain):
    """Moving a recipient re-announces; gateways must see the new IP."""
    node, wallet, miner = funded_chain
    view = DirectoryView(node.chain)
    view.follow()
    first = wallet.create_announcement(
        build_announcement_payload(wallet.keypair, "old-host"))
    assert node.submit_transaction(first).accepted
    miner.mine_and_connect(101.0)
    second = wallet.create_announcement(
        build_announcement_payload(wallet.keypair, "new-host"))
    assert node.submit_transaction(second).accepted
    miner.mine_and_connect(102.0)
    assert view.lookup(wallet.address).endpoint == "new-host"


def test_rescan_rebuilds_from_history(funded_chain):
    """Start-up behaviour: 'each node retrieves the recent blocks ... and
    scans their content for foreign gateways IPs' (section 5.1)."""
    node, wallet, miner = funded_chain
    tx = wallet.create_announcement(
        build_announcement_payload(wallet.keypair, "host-a"))
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(103.0)
    # A view created after the fact must find it by rescanning.
    late_view = DirectoryView(node.chain)
    late_view.follow()
    assert late_view.lookup(wallet.address).endpoint == "host-a"
    assert len(late_view) == 1


def test_announcement_checks_go_through_the_chains_verdict_memo(funded_chain):
    """Every view of a deployment scans the same announcements: the
    second scan is answered by the first, forged payloads included."""
    node, wallet, miner = funded_chain
    honest = build_announcement_payload(wallet.keypair, "host-a")
    forged = bytearray(honest)
    forged[-1] ^= 1
    for payload in (honest, bytes(forged)):
        assert node.submit_transaction(
            wallet.create_announcement(payload)).accepted
        miner.mine_and_connect(104.0)
    memo = node.engine.verdict_memo
    before = (memo.hits["ecdsa"], memo.misses["ecdsa"])
    views = [DirectoryView(node.chain) for _ in range(3)]
    for view in views:
        view.rescan()
        assert view.lookup(wallet.address).endpoint == "host-a"
        assert len(view) == 1
    assert memo.misses["ecdsa"] - before[1] == 2
    assert memo.hits["ecdsa"] - before[0] == 2 * 2
    assert parse_announcement_payload(bytes(forged), memo) is None
    assert parse_announcement_payload(honest, memo) is not None
