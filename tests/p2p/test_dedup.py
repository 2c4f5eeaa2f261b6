"""LRUSet: the bounded dedup memory behind gossip and daemon caches."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.p2p.dedup import LRUSet


def test_basic_set_semantics():
    cache = LRUSet(4)
    cache.add(b"a")
    cache.add(b"b")
    assert b"a" in cache and b"b" in cache
    assert b"c" not in cache
    cache.add(b"a")  # re-add is a no-op: two more keys fit
    cache.add(b"c")
    cache.add(b"d")
    assert cache.evictions == 0


def test_eviction_is_least_recently_used():
    cache = LRUSet(3)
    for key in (b"a", b"b", b"c"):
        cache.add(key)
    cache.add(b"d")  # evicts a (oldest)
    assert b"a" not in cache
    assert all(key in cache for key in (b"b", b"c", b"d"))
    assert cache.evictions == 1


def test_lookup_refreshes_recency():
    cache = LRUSet(3)
    for key in (b"a", b"b", b"c"):
        cache.add(key)
    assert b"a" in cache  # touch: a is now most recent
    cache.add(b"d")       # evicts b, not a
    assert b"a" in cache
    assert b"b" not in cache


def test_clear_forgets_every_key():
    cache = LRUSet(3)
    cache.add(b"x")
    cache.add(b"y")
    cache.clear()
    assert b"x" not in cache and b"y" not in cache
    for key in (b"a", b"b", b"c"):
        cache.add(key)
    assert cache.evictions == 0


def test_invalid_maxsize_rejected():
    with pytest.raises(ConfigurationError):
        LRUSet(0)
    with pytest.raises(ConfigurationError):
        LRUSet(-5)
