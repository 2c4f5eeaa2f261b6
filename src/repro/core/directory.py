"""The on-chain IP directory (paper section 4.3).

A recipient ready to receive messages publishes an OP_RETURN transaction
binding its blockchain address (``@R``, the identifier nodes are
provisioned with) to its current IP endpoint.  Gateways resolve ``@R`` by
scanning recent blocks — "On start-up, each node retrieves the recent
blocks from other nodes and scans their content for foreign gateways IPs"
(section 5.1) — and keep the view current by watching new blocks.

Announcements are authenticated: the payload embeds the announcer's
public key and an ECDSA signature over (address, endpoint), so a foreign
actor cannot hijack someone else's ``@R``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.blockchain.chain import Chain
from repro.blockchain.sigbatch import VerdictMemo
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, address_from_pubkey
from repro.errors import ProtocolError
from repro.script.builder import op_return_data

__all__ = ["Announcement", "DirectoryView", "build_announcement_payload",
           "parse_announcement_payload", "ANNOUNCEMENT_MAGIC"]

ANNOUNCEMENT_MAGIC = b"BCWIP1"
# The port every recipient announces: one per deployment.
ANNOUNCEMENT_PORT = 7264


@dataclass(frozen=True)
class Announcement:
    """A resolved directory entry."""

    address: str          # blockchain address @R
    endpoint: str         # network host name ("IP address")
    port: int
    height: int           # block height of the announcement
    txid: bytes


def build_announcement_payload(keypair: KeyPair, endpoint: str) -> bytes:
    """Serialize and sign an IP announcement for ``keypair``'s address."""
    endpoint_bytes = endpoint.encode("utf-8")
    if len(endpoint_bytes) > 64:
        raise ProtocolError(f"endpoint too long: {len(endpoint_bytes)} bytes")
    if not 0 < ANNOUNCEMENT_PORT <= 0xFFFF:
        raise ProtocolError(f"port out of range: {ANNOUNCEMENT_PORT}")
    pubkey = keypair.public_key.to_bytes()
    body = (
        pubkey
        + struct.pack("<H", ANNOUNCEMENT_PORT)
        + bytes([len(endpoint_bytes)])
        + endpoint_bytes
    )
    signature = keypair.sign(sha256(ANNOUNCEMENT_MAGIC + body)).to_bytes()
    return ANNOUNCEMENT_MAGIC + body + signature


def parse_announcement_payload(
        payload: bytes, memo: Optional[VerdictMemo] = None,
) -> Optional[tuple[str, str, int]]:
    """Parse and authenticate a payload; returns (address, endpoint, port).

    Returns None for foreign/invalid OP_RETURN data — the chain carries
    arbitrary application payloads, so parsing is defensive, not raising.
    The signature check goes through ``memo`` when one is given: every
    gateway of a deployment scans the same announcements.
    """
    if not payload.startswith(ANNOUNCEMENT_MAGIC):
        return None
    body_start = len(ANNOUNCEMENT_MAGIC)
    try:
        pubkey_bytes = payload[body_start:body_start + 33]
        if len(pubkey_bytes) != 33:
            return None
        offset = body_start + 33
        port = struct.unpack_from("<H", payload, offset)[0]
        offset += 2
        endpoint_len = payload[offset]
        offset += 1
        endpoint_bytes = payload[offset:offset + endpoint_len]
        if len(endpoint_bytes) != endpoint_len:
            return None
        offset += endpoint_len
        signature = payload[offset:offset + 64]
        if len(signature) != 64 or len(payload) != offset + 64:
            return None
        public_key = ecdsa.PublicKey.from_bytes(pubkey_bytes)
        body = payload[body_start:offset]
        digest = sha256(ANNOUNCEMENT_MAGIC + body)
        if memo is None:
            memo = VerdictMemo()
        if not memo.check_ecdsa(pubkey_bytes, digest, signature):
            return None
        address = address_from_pubkey(public_key)
        return address, endpoint_bytes.decode("utf-8"), port
    except (ecdsa.ECDSAError, struct.error, UnicodeDecodeError):
        return None


class DirectoryView:
    """A gateway's materialized view of the on-chain directory."""

    def __init__(self, chain: Chain) -> None:
        self._chain = chain
        self._entries: dict[str, Announcement] = {}
        self._scanned_height = -1

    def follow(self) -> None:
        """Scan history and subscribe to newly connected blocks."""
        self.rescan()
        self._chain.add_connect_listener(
            lambda block, height: self._scan_block(block, height)
        )

    def rescan(self) -> None:
        """Full rescan of the active chain (start-up behaviour)."""
        self._entries.clear()
        for height, block in self._chain.iter_active_blocks():
            self._scan_block(block, height)

    def _scan_block(self, block, height: int) -> None:
        for tx in block.transactions:
            for output in tx.outputs:
                data = op_return_data(output.script_pubkey)
                parsed = None if data is None else parse_announcement_payload(
                    data, self._chain.engine.verdict_memo)
                if parsed is None:
                    continue
                address, endpoint, port = parsed
                current = self._entries.get(address)
                # Later announcements supersede earlier ones.
                if current is None or height >= current.height:
                    self._entries[address] = Announcement(
                        address=address, endpoint=endpoint, port=port,
                        height=height, txid=tx.txid,
                    )
        self._scanned_height = max(self._scanned_height, height)

    def lookup(self, address: str) -> Optional[Announcement]:
        """Resolve a blockchain address to its announced endpoint."""
        return self._entries.get(address)
