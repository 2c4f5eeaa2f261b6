"""Bounded deduplication sets for long-running relay nodes.

Gossip and daemon layers remember which txids/block hashes they have
already processed.  Unbounded ``set`` memories grow forever on a
production gateway; :class:`LRUSet` keeps the most-recently-seen keys and
evicts the oldest once full, so a federation that runs for months keeps a
fixed memory footprint (at the cost of occasionally reprocessing a very
old item — which validation dedups anyway).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.errors import ConfigurationError

__all__ = ["LRUSet"]


class LRUSet:
    """A set with least-recently-*seen* eviction.

    Both :meth:`add` and membership tests refresh recency: an item the
    relay keeps encountering stays cached, while one-shot items age out.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ConfigurationError(f"LRUSet maxsize must be positive: {maxsize}")
        self.maxsize = maxsize
        self.evictions = 0
        self._entries: OrderedDict[Hashable, None] = OrderedDict()

    def __contains__(self, key: Hashable) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def add(self, key: Hashable) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = None
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
