"""Header-only chain state for SPV clients.

A :class:`HeaderChain` stores the active chain as a height-indexed list
of validated :class:`~repro.blockchain.block.BlockHeader` objects — no
bodies, no UTXO set, ~84 bytes per block.  Validation is the header
subset of consensus, which with no proof-of-work is previous-hash
linkage alone, matching full-node behavior.

Fork handling mirrors longest-chain fork choice: an incoming range that
conflicts with the stored suffix replaces it only when the result is
strictly higher than the current tip (first-seen wins on equal height,
like ``Chain``).
"""

from __future__ import annotations

from typing import Optional

from repro.blockchain.block import BlockHeader
from repro.errors import ValidationError

__all__ = ["HeaderChain", "GENESIS_PREV_HASH"]

#: ``prev_hash`` of every chain's genesis block.
GENESIS_PREV_HASH = b"\x00" * 32


class HeaderChain:
    """The active header chain of one light client."""

    def __init__(self) -> None:
        self._headers: list[BlockHeader] = []
        self._heights: dict[bytes, int] = {}
        self.headers_connected = 0
        self.headers_rejected = 0
        self.reorgs = 0

    def __len__(self) -> int:
        return len(self._headers)

    @property
    def tip_height(self) -> int:
        """Height of the best header; ``-1`` before genesis arrives."""
        return len(self._headers) - 1

    @property
    def tip_hash(self) -> bytes:
        if not self._headers:
            return GENESIS_PREV_HASH
        return self._headers[-1].hash

    def header_at(self, height: int) -> Optional[BlockHeader]:
        if 0 <= height < len(self._headers):
            return self._headers[height]
        return None

    def contains(self, block_hash: bytes) -> bool:
        return block_hash in self._heights

    # -- growth ----------------------------------------------------------------

    def connect(self, header: BlockHeader) -> str:
        """Append one header; returns ``"connected"``, ``"duplicate"`` or
        ``"disconnected"`` (``prev_hash`` is not our tip)."""
        if header.hash in self._heights:
            return "duplicate"
        if header.prev_hash != self.tip_hash:
            return "disconnected"
        self._heights[header.hash] = len(self._headers)
        self._headers.append(header)
        self.headers_connected += 1
        return "connected"

    def apply_range(self, start_height: int, raw_headers: tuple[bytes, ...]
                    ) -> tuple[int, str]:
        """Merge a server-supplied consecutive header range.

        Returns ``(newly_connected, status)`` where status is one of
        ``"ok"``, ``"empty"``, ``"gap"`` (range starts above our tip+1 —
        the caller should re-request from lower), ``"unanchored"``
        (``headers[0]`` does not link onto our header at
        ``start_height-1`` — a fork below the requested window), or
        ``"invalid"`` (a malformed header, or a break in the linkage past
        the first; nothing is applied).
        """
        if not raw_headers:
            return 0, "empty"
        if start_height < 0 or start_height > self.tip_height + 1:
            return 0, "gap"
        headers = []
        for raw in raw_headers:
            try:
                header = BlockHeader.deserialize(raw)
            except ValidationError:
                self.headers_rejected += 1
                return 0, "invalid"
            headers.append(header)
        prev_hash = (GENESIS_PREV_HASH if start_height == 0
                     else self._headers[start_height - 1].hash)
        for header in headers:
            if header.prev_hash != prev_hash:
                self.headers_rejected += 1
                return 0, "unanchored" if header is headers[0] else "invalid"
            prev_hash = header.hash
        # Skip the prefix we already have; diverging suffixes only win if
        # the replacement reaches at least our current tip height.
        offset = 0
        while (offset < len(headers)
               and start_height + offset <= self.tip_height
               and self._headers[start_height + offset].hash
               == headers[offset].hash):
            offset += 1
        fresh = headers[offset:]
        if not fresh:
            return 0, "ok"
        splice_at = start_height + offset
        if (splice_at <= self.tip_height
                and splice_at + len(fresh) - 1 <= self.tip_height):
            # A conflicting branch no taller than ours: first-seen wins,
            # matching Chain's strictly-greater-work reorg rule.
            return 0, "ok"
        if splice_at <= self.tip_height:
            self.reorgs += 1
            for stale in self._headers[splice_at:]:
                del self._heights[stale.hash]
            del self._headers[splice_at:]
        for header in fresh:
            self._heights[header.hash] = len(self._headers)
            self._headers.append(header)
        self.headers_connected += len(fresh)
        return len(fresh), "ok"
