"""A chain explorer for BcWAN networks.

Renders blocks and transactions with BcWAN-aware annotations: P2PKH
payments, OP_RETURN directory announcements (decoded), Listing-1
key-release offers (with their refund locktimes), claims (with the
revealed ephemeral key fingerprint), and refunds.

Usable as a library on any :class:`repro.blockchain.Chain`, or as a demo
CLI (``python -m repro.tools.explorer``) that runs a small federation and
walks its chain.
"""

from __future__ import annotations

from repro.blockchain.block import Block
from repro.blockchain.chain import Chain
from repro.blockchain.transaction import Transaction, TxOutput
from repro.core.directory import parse_announcement_payload
from repro.crypto import rsa
from repro.script.analysis import (
    OUTPUT_KEY_RELEASE,
    OUTPUT_P2PKH,
    classify_output,
)
from repro.script.builder import (RSA_PAIR_PLACEHOLDER, op_return_data,
                                  parse_ephemeral_key_release)

__all__ = [
    "describe_output",
    "format_transaction",
    "format_block",
    "format_chain_summary",
    "scan_key_releases",
    "main",
]


def describe_output(output: TxOutput) -> str:
    """A one-line human description of an output's locking script, by
    its template class (:func:`repro.script.classify_output`)."""
    script = output.script_pubkey
    data = op_return_data(script)
    if data is not None:
        parsed = parse_announcement_payload(data)
        if parsed is not None:
            address, endpoint, port = parsed
            return (f"directory announcement: {address} -> "
                    f"{endpoint}:{port}")
        return f"OP_RETURN data ({len(data)} bytes)"
    cls = classify_output(script)
    if cls == OUTPUT_KEY_RELEASE:
        _rsa_pubkey, gateway_hash, _buyer_hash, locktime = \
            parse_ephemeral_key_release(script)
        return (f"key-release offer: {output.value} to gateway "
                f"{gateway_hash.hex()[:12]}.., refund at height {locktime}")
    if cls == OUTPUT_P2PKH:
        return f"P2PKH: {output.value} to {script.elements[2].hex()[:12]}.."
    return f"script: {script.disassemble()[:60]}"


def _classify_input(tx: Transaction, index: int) -> str:
    tx_input = tx.inputs[index]
    if tx.is_coinbase:
        return "coinbase"
    elements = tx_input.script_sig.elements
    if len(elements) == 3 and isinstance(elements[2], bytes):
        try:
            key = rsa.RSAPrivateKey.from_bytes(elements[2])
        except rsa.RSAError:
            key = None
        if key is not None:
            fingerprint = key.public_key.fingerprint().hex()[:12]
            return (f"KEY-RELEASE CLAIM spending {tx_input.outpoint} — "
                    f"reveals eSk (ePk fingerprint {fingerprint}..)")
        if elements[2] == RSA_PAIR_PLACEHOLDER:
            return f"key-release REFUND spending {tx_input.outpoint}"
    if len(elements) == 2:
        return f"P2PKH spend of {tx_input.outpoint}"
    return f"spend of {tx_input.outpoint}"


def format_transaction(tx: Transaction) -> str:
    """Multi-line rendering of one transaction."""
    lines = [f"  tx {tx.txid.hex()[:24]}.. "
             f"({'coinbase, ' if tx.is_coinbase else ''}"
             f"{len(tx.inputs)} in / {len(tx.outputs)} out, "
             f"locktime={tx.locktime})"]
    for index in range(len(tx.inputs)):
        lines.append(f"    in[{index}]: {_classify_input(tx, index)}")
    for index, output in enumerate(tx.outputs):
        lines.append(f"    out[{index}]: {describe_output(output)}")
    return "\n".join(lines)


def format_block(block: Block, height: int) -> str:
    """Multi-line rendering of one block."""
    head = (f"block #{height} "
            f"{block.hash.hex()[:24]}.. "
            f"t={block.header.timestamp:.3f} "
            f"({len(block.transactions)} txs, "
            f"{block.serialized_size()} bytes)")
    parts = [head]
    for tx in block.transactions:
        parts.append(format_transaction(tx))
    return "\n".join(parts)


def format_chain_summary(chain: Chain) -> str:
    """One-paragraph summary of a chain's state."""
    tx_count = sum(
        len(block.transactions)
        for _height, block in chain.iter_active_blocks()
    )
    return (f"chain height {chain.height}, tip "
            f"{chain.tip.hash.hex()[:24]}.., {tx_count} transactions, "
            f"{len(chain.utxos)} UTXOs holding "
            f"{chain.utxos.total_value()} units")


def scan_key_releases(chain: Chain) -> list[dict]:
    """Every fair-exchange settlement visible on the active chain.

    Returns one record per claim/refund: height, txid, kind, and the
    revealed key fingerprint for claims.
    """
    events = []
    for height, block in chain.iter_active_blocks(1):
        for tx in block.transactions:
            if tx.is_coinbase:
                continue
            for tx_input in tx.inputs:
                elements = tx_input.script_sig.elements
                if len(elements) != 3 or not isinstance(elements[2], bytes):
                    continue
                try:
                    key = rsa.RSAPrivateKey.from_bytes(elements[2])
                except rsa.RSAError:
                    key = None
                if key is not None:
                    events.append({
                        "height": height,
                        "txid": tx.txid.hex(),
                        "kind": "claim",
                        "epk_fingerprint":
                            key.public_key.fingerprint().hex()[:16],
                    })
                elif elements[2] == RSA_PAIR_PLACEHOLDER:
                    events.append({
                        "height": height,
                        "txid": tx.txid.hex(),
                        "kind": "refund",
                        "epk_fingerprint": "",
                    })
    return events


def main() -> None:  # pragma: no cover - demo entry point
    """Run a tiny federation and walk its chain."""
    from repro.core import BcWANNetwork, NetworkConfig

    print("running a 3-actor federation (12 exchanges) to populate a chain...")
    network = BcWANNetwork(NetworkConfig(
        num_gateways=3, sensors_per_gateway=2, exchange_interval=20.0,
        seed=1,
    ))
    network.run(num_exchanges=12)
    chain = network.master_daemon.node.chain

    print()
    print(format_chain_summary(chain))
    print()
    settlements = scan_key_releases(chain)
    print(f"{len(settlements)} fair-exchange settlements on chain:")
    for event in settlements[:10]:
        print(f"  height {event['height']:>3}  {event['kind']:<7} "
              f"{event['txid'][:24]}..  {event['epk_fingerprint']}")
    print()
    print("most recent block in full:")
    print(format_block(chain.tip.block, chain.height))


if __name__ == "__main__":  # pragma: no cover
    main()
