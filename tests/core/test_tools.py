"""The explorer and experiment CLI tooling."""

from __future__ import annotations

import random
import sys

import pytest

from repro.crypto import rsa
from repro.crypto.keys import KeyPair
from repro.tools.experiment import build_parser, main
from repro.tools.explorer import (
    describe_output,
    format_block,
    format_chain_summary,
    format_transaction,
    scan_key_releases,
)


# -- explorer --------------------------------------------------------------------

def test_classify_p2pkh(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert describe_output(tx.outputs[0]).startswith("P2PKH: 100")


def test_classify_announcement(funded_chain):
    from repro.core.directory import build_announcement_payload
    _node, wallet, _miner = funded_chain
    tx = wallet.create_announcement(
        build_announcement_payload(wallet.keypair, "10.1.2.3"))
    description = describe_output(tx.outputs[0])
    assert "directory announcement" in description
    assert "10.1.2.3:7264" in description


def test_classify_raw_op_return(funded_chain):
    _node, wallet, _miner = funded_chain
    tx = wallet.create_announcement(b"arbitrary-data")
    assert "OP_RETURN data (14 bytes)" in describe_output(tx.outputs[0])


def test_classify_key_release_offer(funded_chain, rng):
    _node, wallet, _miner = funded_chain
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), b"\x11" * 20, amount=250)
    description = describe_output(offer.transaction.outputs[0])
    assert "key-release offer: 250" in description
    assert "refund at height" in description


def test_format_transaction_marks_claim(funded_chain, rng):
    node, wallet, miner = funded_chain
    gateway = __import__("repro.blockchain.wallet",
                         fromlist=["Wallet"]).Wallet(
        node.chain, KeyPair.generate(rng))
    gateway.watch_chain()
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=100)
    assert node.submit_transaction(offer.transaction).accepted
    claim = gateway.claim_key_release(offer, ephemeral.to_bytes())
    assert node.submit_transaction(claim).accepted
    text = format_transaction(claim)
    assert "KEY-RELEASE CLAIM" in text
    assert "reveals eSk" in text


def test_format_refund_marker(funded_chain, rng):
    node, wallet, miner = funded_chain
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), b"\x22" * 20, amount=100,
        refund_locktime=node.chain.height + 1)
    assert node.submit_transaction(offer.transaction).accepted
    miner.mine_and_connect(50.0)
    miner.mine_and_connect(51.0)
    refund = wallet.refund_key_release(offer)
    assert node.submit_transaction(refund).accepted
    assert "REFUND" in format_transaction(refund)


def test_format_block_and_summary(funded_chain):
    node, _wallet, _miner = funded_chain
    text = format_block(node.chain.tip.block, node.chain.height)
    assert f"#{node.chain.height}" in text
    assert "coinbase" in text
    summary = format_chain_summary(node.chain)
    assert f"chain height {node.chain.height}" in summary


def test_scan_key_releases(funded_chain, rng):
    node, wallet, miner = funded_chain
    from repro.blockchain.wallet import Wallet
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    gateway.watch_chain()
    ephemeral = rsa.generate_keypair(512, rng)
    offer = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=100)
    assert node.submit_transaction(offer.transaction).accepted
    claim = gateway.claim_key_release(offer, ephemeral.to_bytes())
    assert node.submit_transaction(claim).accepted
    miner.mine_and_connect(60.0)
    events = scan_key_releases(node.chain)
    assert len(events) == 1
    assert events[0]["kind"] == "claim"
    assert events[0]["txid"] == claim.txid.hex()


# -- experiment CLI -----------------------------------------------------------------

def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["fig5", "--exchanges", "10", "--seed", "3"])
    assert args.command == "fig5" and args.exchanges == 10
    args = parser.parse_args(["doublespend", "--confirmations", "0", "2"])
    assert args.confirmations == [0, 2]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def run_cli(monkeypatch, *arguments):
    """``bcwan-experiment <arguments>``: the exit code."""
    monkeypatch.setattr(sys, "argv", ["bcwan-experiment", *arguments])
    return main()


def test_capacity_command(capsys, monkeypatch):
    assert run_cli(monkeypatch, "capacity") == 0
    out = capsys.readouterr().out
    assert "SF 7" in out and "183" in out


def test_doublespend_command(capsys, monkeypatch):
    assert run_cli(monkeypatch, "doublespend", "--confirmations", "0",
                   "1") == 0
    out = capsys.readouterr().out
    assert "True" in out and "False" in out


def test_fig5_command_small(capsys, monkeypatch):
    assert run_cli(monkeypatch, "fig5", "--exchanges", "6", "--seed", "3",
                   "--gateways", "2", "--sensors", "2", "--histogram") == 0
    out = capsys.readouterr().out
    assert "measured mean" in out


def test_baselines_command(capsys, monkeypatch):
    assert run_cli(monkeypatch, "baselines", "--exchanges", "12") == 0
    out = capsys.readouterr().out
    assert "BcWAN" in out and "legacy" in out
