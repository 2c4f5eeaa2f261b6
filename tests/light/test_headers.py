"""Header-only chain state: linkage, range merges, and fork choice."""

from __future__ import annotations

from repro.blockchain.block import BlockHeader
from repro.crypto.hashing import double_sha256
from repro.light.headers import GENESIS_PREV_HASH, HeaderChain


def make_headers(count, prev=GENESIS_PREV_HASH, salt=b""):
    headers = []
    for i in range(count):
        header = BlockHeader(prev_hash=prev,
                             merkle_root=double_sha256(salt + bytes([i])),
                             timestamp=float(i))
        headers.append(header)
        prev = header.hash
    return headers


def raw(headers):
    return tuple(h.serialize() for h in headers)


# -- connect -----------------------------------------------------------------

def test_empty_chain_state():
    chain = HeaderChain()
    assert chain.tip_height == -1
    assert chain.tip_hash == GENESIS_PREV_HASH
    assert chain.header_at(0) is None


def test_connect_sequence():
    chain = HeaderChain()
    headers = make_headers(3)
    for i, header in enumerate(headers):
        assert chain.connect(header) == "connected"
        assert chain.tip_height == i
    assert chain.tip_hash == headers[-1].hash
    assert chain.header_at(1) == headers[1]
    assert chain.header_at(0) == headers[0]


def test_connect_duplicate_and_disconnected():
    chain = HeaderChain()
    a, b = make_headers(2)
    assert chain.connect(a) == "connected"
    assert chain.connect(a) == "duplicate"
    orphan = make_headers(1, prev=b"\x11" * 32)[0]
    assert chain.connect(orphan) == "disconnected"
    assert chain.tip_height == 0
    assert chain.connect(b) == "connected"


# -- apply_range -------------------------------------------------------------

def test_apply_range_from_genesis():
    chain = HeaderChain()
    headers = make_headers(5)
    added, status = chain.apply_range(0, raw(headers))
    assert (added, status) == (5, "ok")
    assert chain.tip_height == 4


def test_apply_range_empty():
    chain = HeaderChain()
    assert chain.apply_range(0, ()) == (0, "empty")


def test_apply_range_gap():
    chain = HeaderChain()
    headers = make_headers(5)
    added, status = chain.apply_range(3, raw(headers[3:]))
    assert (added, status) == (0, "gap")
    assert chain.tip_height == -1


def test_apply_range_unanchored():
    chain = HeaderChain()
    main = make_headers(3)
    chain.apply_range(0, raw(main))
    fork = make_headers(2, prev=b"\x22" * 32)
    added, status = chain.apply_range(3, raw(fork))
    assert (added, status) == (0, "unanchored")


def test_apply_range_invalid_garbage():
    chain = HeaderChain()
    added, status = chain.apply_range(0, (b"\x00" * 7,))
    assert (added, status) == (0, "invalid")
    assert chain.headers_rejected == 1


def test_apply_range_broken_interior_linkage():
    chain = HeaderChain()
    a, b, _c = make_headers(3)
    stray = make_headers(1, salt=b"stray")[0]
    added, status = chain.apply_range(0, raw([a, stray]))
    assert (added, status) == (0, "invalid")
    assert chain.tip_height == -1  # nothing partial was applied


def test_apply_range_overlapping_prefix_deduped():
    chain = HeaderChain()
    headers = make_headers(6)
    chain.apply_range(0, raw(headers[:4]))
    added, status = chain.apply_range(2, raw(headers[2:]))
    assert (added, status) == (2, "ok")
    assert chain.tip_height == 5
    assert chain.headers_connected == 6


def test_apply_range_duplicate_is_ok_noop():
    chain = HeaderChain()
    headers = make_headers(4)
    chain.apply_range(0, raw(headers))
    assert chain.apply_range(0, raw(headers)) == (0, "ok")
    assert chain.reorgs == 0


# -- fork choice -------------------------------------------------------------

def test_longer_fork_replaces_suffix():
    chain = HeaderChain()
    main = make_headers(4)
    chain.apply_range(0, raw(main))
    fork = make_headers(3, prev=main[1].hash, salt=b"fork")
    added, status = chain.apply_range(2, raw(fork))
    assert (added, status) == (3, "ok")
    assert chain.tip_height == 4
    assert chain.reorgs == 1
    assert chain.header_at(2).hash == fork[0].hash
    active = {chain.header_at(height).hash for height in range(5)}
    assert main[2].hash not in active and main[3].hash not in active
    # a header the reorg dropped connects again as new, not a duplicate
    assert chain.connect(main[2]) != "duplicate"


def test_shorter_fork_first_seen_wins():
    chain = HeaderChain()
    main = make_headers(5)
    chain.apply_range(0, raw(main))
    fork = make_headers(1, prev=main[1].hash, salt=b"fork")
    added, status = chain.apply_range(2, raw(fork))
    assert (added, status) == (0, "ok")
    assert chain.tip_height == 4
    assert chain.header_at(2).hash == main[2].hash
    assert chain.reorgs == 0


def test_equal_height_fork_first_seen_wins():
    """A same-length diverging suffix only ties the tip — the incumbent
    survives, mirroring ``Chain``'s strictly-greater-work reorg rule."""
    chain = HeaderChain()
    main = make_headers(4)
    chain.apply_range(0, raw(main))
    fork = make_headers(2, prev=main[1].hash, salt=b"fork")
    added, status = chain.apply_range(2, raw(fork))
    assert (added, status) == (0, "ok")
    assert chain.tip_height == 3
    assert chain.header_at(3).hash == main[3].hash
    assert chain.reorgs == 0
