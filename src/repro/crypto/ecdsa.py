"""ECDSA over secp256k1, implemented from scratch.

The blockchain substrate signs transactions with ECDSA exactly as
Bitcoin/Multichain do (paper section 2 describes scripting around "ECDSA
signatures and keys").  Nonces are deterministic per RFC 6979 so that
signing is reproducible in simulation and never reuses a nonce.

Signatures are low-S normalized (BIP 62) and serialized as the compact
64-byte ``r || s`` form, which keeps the script interpreter simple
compared to DER.

Every scalar multiply is one scheme: signed fixed-width digits over rows
of precomputed affine multiples.  ``PublicKey.verify`` and
``verify_batch`` share one core for ``u1*G + u2*Q``: ``u1*G`` comes from
the generator's import-time table (no doubling), and ``u2`` is split by
secp256k1's GLV endomorphism into two 128-bit halves over multiples of
``Q`` alone.  A key's first verification builds its full table of 4-bit
digits in a byte-budgeted cache, so every verification is a sum of ~92
table points with no doubling, added pairwise in affine coordinates,
where each level of the pairwise sums of every item of the call shares
one modular inversion.  A key whose cumulative verifications reach the
break-even trades that table for one of 8-bit digits, and its sums
shrink to ~64 points.  SEC1 parsing is memoised, so a key's square root
is paid once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from repro.crypto.hashing import hmac_sha256

__all__ = [
    "CURVE_ORDER",
    "ECDSAError",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "generate_private_key",
    "verify_batch",
]

# secp256k1 domain parameters.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_A = 0
_B = 7
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


class ECDSAError(Exception):
    """Raised on invalid keys, points, or signature encodings."""


# --- Jacobian point arithmetic -------------------------------------------

_INFINITY = (0, 0, 0)  # z == 0 marks the point at infinity


def _jacobian_double(point: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = point
    if not y or not z:
        return _INFINITY
    ysq = (y * y) % _P
    s = (4 * x * ysq) % _P
    m = (3 * x * x) % _P  # a == 0 for secp256k1
    nx = (m * m - 2 * s) % _P
    ny = (m * (s - nx) - 8 * ysq * ysq) % _P
    nz = (2 * y * z) % _P
    return nx, ny, nz


def _jacobian_add(p: tuple[int, int, int],
                  q: tuple[int, int, int]) -> tuple[int, int, int]:
    if not p[2]:
        return q
    if not q[2]:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1sq = (z1 * z1) % _P
    z2sq = (z2 * z2) % _P
    u1 = (x1 * z2sq) % _P
    u2 = (x2 * z1sq) % _P
    s1 = (y1 * z2sq * z2) % _P
    s2 = (y2 * z1sq * z1) % _P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jacobian_double(p)
    h = (u2 - u1) % _P
    r = (s2 - s1) % _P
    hsq = (h * h) % _P
    hcu = (hsq * h) % _P
    u1hsq = (u1 * hsq) % _P
    nx = (r * r - hcu - 2 * u1hsq) % _P
    ny = (r * (u1hsq - nx) - s1 * hcu) % _P
    nz = (h * z1 * z2) % _P
    return nx, ny, nz


# Mixed addition: (x2, y2) comes from a precomputed row whose entries are
# normalized to affine (z == 1), which drops the z2-dependent work of the
# generic formula (~30% fewer field multiplications per add).
def _jacobian_add_affine(p: tuple[int, int, int],
                         x2: int, y2: int) -> tuple[int, int, int]:
    x1, y1, z1 = p
    if not z1:
        return x2, y2, 1
    z1sq = (z1 * z1) % _P
    u2 = (x2 * z1sq) % _P
    s2 = (y2 * z1sq * z1) % _P
    if x1 == u2:
        if y1 != s2:
            return _INFINITY
        return _jacobian_double(p)
    h = u2 - x1
    r = s2 - y1
    hsq = (h * h) % _P
    hcu = (hsq * h) % _P
    u1hsq = (x1 * hsq) % _P
    nx = (r * r - hcu - 2 * u1hsq) % _P
    ny = (r * (u1hsq - nx) - y1 * hcu) % _P
    nz = (h * z1) % _P
    return nx, ny, nz


def _batch_inverse(values: list[int], modulus: int) -> list[int]:
    """Montgomery's trick: invert every (nonzero) value in one ``pow``.

    ``k`` inversions cost one modular inversion plus ``3(k-1)``
    multiplications instead of ``k`` inversions.
    """
    if not values:
        return []
    prefix = [1] * (len(values) + 1)
    for index, value in enumerate(values):
        prefix[index + 1] = (prefix[index] * value) % modulus
    inverse = pow(prefix[-1], -1, modulus)
    out = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        out[index] = (prefix[index] * inverse) % modulus
        inverse = (inverse * values[index]) % modulus
    return out


def _affine_sums(groups: list[list[tuple[int, int]]]
                 ) -> list[Optional[tuple[int, int]]]:
    """The sum of each group of affine points, ``None`` for infinity.

    Every group is summed pairwise, level by level, in affine coordinates,
    and the slope denominators of one level, across every group, share one
    Montgomery inversion: an addition costs ~6 field multiplications where
    a mixed Jacobian one costs ~11, and groups of up to ``k`` points cost
    ``ceil(log2 k)`` inversions for the whole call.  Equal points double
    (slope ``3x**2 / 2y``, in the same batch); opposite points cancel, and
    the infinity they make is dropped.
    """
    level = groups
    while any(len(points) > 1 for points in level):
        denominators = []
        for points in level:
            pairs = iter(points)
            for (x1, y1), (x2, y2) in zip(pairs, pairs):
                if x1 != x2:
                    denominators.append(x2 - x1)
                elif y1 == y2:  # y != 0: secp256k1 has no point of order 2
                    denominators.append(y1 + y1)
        inverses = iter(_batch_inverse(denominators, _P))
        summed_level = []
        for points in level:
            summed = [points[-1]] if len(points) & 1 else []
            pairs = iter(points)
            for (x1, y1), (x2, y2) in zip(pairs, pairs):
                if x1 != x2:
                    slope = (y2 - y1) * next(inverses) % _P
                elif y1 == y2:
                    slope = 3 * x1 * x1 * next(inverses) % _P
                else:
                    continue
                x3 = (slope * slope - x1 - x2) % _P
                summed.append((x3, (slope * (x1 - x3) - y1) % _P))
            summed_level.append(summed)
        level = summed_level
    return [points[0] if points else None for points in level]


def _to_affine(point: tuple[int, int, int]) -> Optional[tuple[int, int]]:
    x, y, z = point
    if not z:
        return None
    z_inv = pow(z, -1, _P)
    z_inv_sq = (z_inv * z_inv) % _P
    return (x * z_inv_sq) % _P, (y * z_inv_sq * z_inv) % _P


def _point_on_curve(x: int, y: int) -> bool:
    return (y * y - x * x * x - _B) % _P == 0


# --- Scalar multiplication: signed digits over affine rows ------------------
#
# A scalar is recoded to signed base-2**w digits in [-2**(w-1), 2**(w-1)],
# so a row holds only the positive multiples 1 .. 2**(w-1) of its base (a
# negative digit is a y-flip), and row i of a table holds those multiples
# of 2**(w*i) * base.  A multiply is doubling-free, a sum of one table
# point per non-zero digit (_table_points), added one at a time by
# _table_walk or pairwise by _affine_sums.

def _signed_digits(scalar: int, bits: int) -> list[int]:
    """Signed base-``2**bits`` digits of ``scalar``, least significant
    first: ``sum(d << (bits * i)) == scalar`` and ``|d| <= 2**(bits-1)``.
    A negative scalar is the digit-wise negation of its magnitude."""
    half, base = 1 << (bits - 1), 1 << bits
    sign = -1 if scalar < 0 else 1
    scalar = abs(scalar)
    digits = []
    while scalar:
        digit = scalar & (base - 1)
        scalar >>= bits
        if digit > half:
            digit -= base
            scalar += 1
        digits.append(sign * digit)
    return digits


def _build_rows(base: tuple[int, int, int], bits: int,
                count: int) -> list[list[tuple[int, int]]]:
    """``rows[i][m - 1] == m * 2**(bits*i) * base`` as affine ``(x, y)``
    for ``m`` in ``1 .. 2**(bits-1)``: even multiples by doubling, odd ones
    by one addition, one Montgomery inversion for the whole table.  No
    entry is the point at infinity: ``base`` has the (prime) group order."""
    size = 1 << (bits - 1)
    points: list[tuple[int, int, int]] = []  # row after row
    for start in range(0, count * size, size):
        if start:
            base = _jacobian_double(points[-1])
        points.append(base)
        for multiple in range(2, size + 1):
            half = points[start + multiple // 2 - 1]
            points.append(_jacobian_add(points[-1], base) if multiple & 1
                          else _jacobian_double(half))
    affine = []
    for (x, y, _z), z_inv in zip(
            points, _batch_inverse([z for _, _, z in points], _P)):
        z_inv_sq = (z_inv * z_inv) % _P
        affine.append(((x * z_inv_sq) % _P, (y * z_inv_sq * z_inv) % _P))
    return [affine[start:start + size]
            for start in range(0, len(affine), size)]


def _table_points(rows: list[list[tuple[int, int]]],
                  digits: Iterable[int]) -> list[tuple[int, int]]:
    """The affine points ``digit * row's base``, one per non-zero digit
    (a negative digit flips ``y``).  Over a base's full table and a
    scalar's digits they sum to ``scalar * base``."""
    points = []
    for row, digit in zip(rows, digits):
        if digit > 0:
            points.append(row[digit - 1])
        elif digit:
            x, y = row[-digit - 1]
            points.append((x, _P - y))
    return points


def _table_walk(acc: tuple[int, int, int], rows: list[list[tuple[int, int]]],
                digits: Iterable[int]) -> tuple[int, int, int]:
    """``acc + sum(digit * row's base)``, one mixed addition per non-zero
    digit."""
    for x, y in _table_points(rows, digits):
        acc = _jacobian_add_affine(acc, x, y)
    return acc


# The generator affords 8-bit digits: 32 rows of 128 entries, built once
# at import.  Folding the scalar into (-n/2, n/2] keeps the top digit's
# carry inside row 31.
_G_DIGIT_BITS = 8
_G_ROWS = _build_rows((_GX, _GY, 1), _G_DIGIT_BITS, 32)


def _generator_digits(scalar: int) -> list[int]:
    """``scalar``'s signed digits over ``_G_ROWS``."""
    scalar %= CURVE_ORDER
    if scalar > CURVE_ORDER // 2:
        scalar -= CURVE_ORDER
    return _signed_digits(scalar, _G_DIGIT_BITS)


def _generator_multiply(scalar: int) -> tuple[int, int, int]:
    """``scalar * G``: at most 32 mixed additions, no doubling."""
    return _table_walk(_INFINITY, _G_ROWS, _generator_digits(scalar))


# --- The verification core: u1*G + u2*Q --------------------------------------
#
# secp256k1 has the endomorphism lambda * (x, y) == (beta * x, y), so u2
# splits into two 128-bit halves, u2 == k1 + k2 * lambda (mod n), that are
# both summed over multiples of Q alone, as signed digits:
#
# * a key's first verification builds all 33 rows of 4-bit digits (264
#   affine points), and it pays no doubling at all: ~31 table points per
#   half beside u1*G's 32, all summed by _affine_sums together with the
#   other items of the call;
# * a key whose *cumulative* verifications, single or batched, reach
#   _WIDEN_AFTER trades those rows for 17 rows of 8-bit digits (2176
#   affine points): ~16 table points per half.  The digit width is read
#   off the rows, so both tables take one path.
#
# BcWAN's signers are provisioned actors (gateways, recipients, masters),
# so every verification is by a key that recurs: docs/PROTOCOL.md "One
# verification core" has the measured traffic.  Verdicts never depend on
# what is cached: every table sums to the same group element.

_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# (a1, b1), (a2, b2): a reduced basis of {(a, b): a + b * lambda == 0 (mod n)}.
# Rounding (u2, 0) to its nearest lattice point leaves |k1| <= (a1 + a2) / 2
# and |k2| <= (|b1| + b2) / 2, both below 2**128.
_A1 = _B2 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8

_KEY_DIGIT_BITS = 4
_KEY_ROWS = 33  # a half's 32 nibbles plus the recoding's carry
_WIDE_DIGIT_BITS = 8
_WIDE_ROWS = 17  # a half's 16 bytes plus the carry


def _glv_split(scalar: int) -> tuple[int, int]:
    """Signed ``(k1, k2)`` with ``k1 + k2 * lambda == scalar (mod n)``."""
    c1 = (_B2 * scalar + CURVE_ORDER // 2) // CURVE_ORDER
    c2 = (-_B1 * scalar + CURVE_ORDER // 2) // CURVE_ORDER
    return scalar - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


#: The verification of a key, counted across calls, that trades its
#: 4-bit table for an 8-bit one.  Rent or buy, against the 4-bit
#: tier: the wide table costs 36 ms to build (a 4-bit one 4.2 ms), and a
#: wide verification saves 0.23 ms over a 4-bit one alone in its call
#: (0.98 -> 0.75 ms), 0.22 ms in a batch of 32 (0.73 -> 0.51 ms per item;
#: medians of six runs of ``benchmarks/test_microbench_ecdsa.py``, which
#: prints these rows, on a 2-vCPU host).  A key has repaid the build by
#: its 157th use alone, its 164th batched, so it widens at its 160th, and
#: pays at most ~2x the best offline choice whatever it does next.  No
#: key of a simulated deployment comes near it (at most ~69 uses); the
#: ledger workloads' one recurring key passes it in their first second.
_WIDEN_AFTER = 160

#: Budget of the per-key tables, counted in affine points of
#: ``_POINT_BYTES`` (184 B on 64-bit CPython): a 4-bit table is 264 points
#: (48.6 KB), an 8-bit one 2176 (0.40 MB).  Every signer holds a table, so
#: the budget must hold the largest signer set in the repo, the 101 keys
#: of ``benchmarks/test_scaling_fleet.py``'s 100-gateway deployment
#: (4.9 MB).  8 MiB holds 172 4-bit tables, or 20 8-bit ones; no bench
#: deployment has more than 25 signers.
_KEY_CACHE_BYTES = 8 << 20
#: One held point: its list slot and an affine tuple of two field elements.
_POINT_BYTES = 8 + sys.getsizeof((0, 0)) + 2 * sys.getsizeof(_P)

#: Distinct SEC1 encodings remembered by ``PublicKey.from_bytes`` (~0.4 KB
#: each): every signer of a deployment, so each square root is paid once.
_PARSED_KEY_LIMIT = 1024


def _points(rows: list[list[tuple[int, int]]]) -> int:
    return sum(map(len, rows))


class _KeyCache:
    """What the module remembers per public key, both parts bounded:
    ``records`` maps a point to ``[uses, rows]`` -- a 33-row 4-bit table
    from the key's first verification, a 17-row 8-bit table once widened
    -- least recently verified evicted first once the points held exceed
    ``_KEY_CACHE_BYTES`` (eviction forgets the count too, so a returning
    key builds a 4-bit table again); ``parsed`` maps SEC1 bytes to their
    validated, immutable :class:`PublicKey`, FIFO."""

    def __init__(self) -> None:
        self.records: dict[tuple[int, int], list] = {}
        self.points_held = 0
        self.tables_built = 0
        self.parsed: dict[bytes, "PublicKey"] = {}
        self.parse_hits = 0
        self.parse_misses = 0

    def rows_for(self, x: int, y: int) -> list[list[tuple[int, int]]]:
        """Count one verification by ``(x, y)`` and return its rows: a
        4-bit table built at the first use, an 8-bit one at the
        ``_WIDEN_AFTER``-th."""
        record = self.records.pop((x, y), None) or [0, []]
        record[0] += 1
        if record[0] == _WIDEN_AFTER:
            self._rebuild(record, x, y, _WIDE_DIGIT_BITS, _WIDE_ROWS)
        elif record[0] == 1:
            self._rebuild(record, x, y, _KEY_DIGIT_BITS, _KEY_ROWS)
        while (self.records
               and self.points_held * _POINT_BYTES > _KEY_CACHE_BYTES):
            _uses, rows = self.records.pop(next(iter(self.records)))
            self.points_held -= _points(rows)
        self.records[(x, y)] = record
        return record[1]

    def _rebuild(self, record: list, x: int, y: int,
                 bits: int, count: int) -> None:
        self.points_held -= _points(record[1])
        record[1] = _build_rows((x, y, 1), bits, count)
        self.points_held += _points(record[1])
        self.tables_built += 1


_key_cache = _KeyCache()


def cache_stats() -> dict[str, int]:
    """Read-only snapshot of the per-key caches.  Plain ints for tests and
    profiling; not part of any deterministic export."""
    cache = _key_cache
    return {
        "keys": len(cache.records),
        "wide_tables": sum(len(rows) == _WIDE_ROWS
                           for _, rows in cache.records.values()),
        "table_bytes": cache.points_held * _POINT_BYTES,
        "tables_built": cache.tables_built,
        "parse_hits": cache.parse_hits,
        "parse_misses": cache.parse_misses,
    }


def _message_scalar(message_hash: bytes) -> int:
    if len(message_hash) != 32:
        raise ECDSAError("message hash must be 32 bytes")
    return int.from_bytes(message_hash, "big") % CURVE_ORDER


def _verdicts(entries: "list[tuple[PublicKey, int, int, int]]"
              ) -> list[bool]:
    """Whether ``x(u1*G + u2*Q) == r (mod n)`` for each ``(Q, z, r, s)``,
    with ``u1 = z/s`` and ``u2 = r/s``; ``False`` if ``r`` or ``s`` is out
    of range or the sum is infinity.

    Each item's sum is a group of affine table points -- ``k1``'s over
    ``Q``'s rows, ``k2``'s over the same rows mapped through
    ``(beta*x, y)``, ``u1``'s over ``G``'s; ~92 over a 4-bit table, ~64
    over an 8-bit one, the digit width read off the rows -- and one
    ``_affine_sums`` adds up every group of the call; its ``x`` is the
    verdict's, with no ``z**-1``.  The ``s**-1`` scalars share one
    inversion too.
    """
    verdicts = [False] * len(entries)
    live = [(index, key, z, r, s)
            for index, (key, z, r, s) in enumerate(entries)
            if 0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER]
    s_inverses = _batch_inverse([entry[4] for entry in live], CURVE_ORDER)
    groups: list[list[tuple[int, int]]] = []
    for (_index, key, z, r, _s), s_inv in zip(live, s_inverses):
        rows = _key_cache.rows_for(key.x, key.y)
        bits = len(rows[0]).bit_length()
        k1, k2 = _glv_split((r * s_inv) % CURVE_ORDER)
        group = _table_points(rows, _signed_digits(k1, bits))
        group += [((x * _BETA) % _P, y)
                  for x, y in _table_points(rows, _signed_digits(k2, bits))]
        group += _table_points(_G_ROWS,
                               _generator_digits((z * s_inv) % CURVE_ORDER))
        groups.append(group)
    for (index, _key, _z, r, _s), total in zip(live, _affine_sums(groups)):
        verdicts[index] = total is not None and total[0] % CURVE_ORDER == r
    return verdicts


def verify_batch(items: "list[tuple[PublicKey, bytes, Signature]]"
                 ) -> list[bool]:
    """Verify ``(public_key, message_hash, signature)`` triples together.

    Returns one verdict per item, bit-identical to
    ``public_key.verify(message_hash, signature)`` (with the default
    ``require_low_s=False``): both go through the same core, which shares
    each modular inversion among every item of the call -- the ``s**-1``
    scalars mod n and each level of the affine sums -- by Montgomery's
    trick.  Every hash is checked before any item is verified.
    """
    return _verdicts([(public_key, _message_scalar(message_hash),
                       signature.r, signature.s)
                      for public_key, message_hash, signature in items])


# --- Key and signature types ----------------------------------------------

@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` in low-S form."""

    r: int
    s: int

    @property
    def is_low_s(self) -> bool:
        """Whether ``s`` is in the canonical (BIP 62) lower half-range."""
        return 0 < self.s <= CURVE_ORDER // 2

    def to_bytes(self) -> bytes:
        """Compact 64-byte ``r || s`` serialization."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise ECDSAError(
                f"compact signature must be 64 bytes, got {len(data)}"
            )
        r = int.from_bytes(data[:32], "big")
        s = int.from_bytes(data[32:], "big")
        if not (0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER):
            raise ECDSAError("signature scalars out of range")
        return cls(r=r, s=s)


@dataclass(frozen=True)
class PublicKey:
    """A point on secp256k1."""

    x: int
    y: int

    def __post_init__(self) -> None:
        # Canonical coordinates only: an unreduced twin would compare
        # unequal to the key it verifies as, and tables are keyed by (x, y).
        if not (0 <= self.x < _P and 0 <= self.y < _P
                and _point_on_curve(self.x, self.y)):
            raise ECDSAError("public key point is not on secp256k1")

    def to_bytes(self) -> bytes:
        """SEC1 compressed serialization (33 bytes)."""
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise ECDSAError(
                f"compressed point must be bytes, got {type(data).__name__}"
            )
        if len(data) != 33 or data[0] not in (2, 3):
            raise ECDSAError(
                f"expected 33-byte compressed point, got {len(data)} bytes"
            )
        data = bytes(data)
        cache = _key_cache
        known = cache.parsed.get(data)
        if known is not None:
            cache.parse_hits += 1
            return known
        cache.parse_misses += 1
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise ECDSAError("x coordinate out of field range")
        y_sq = (pow(x, 3, _P) + _B) % _P
        y = pow(y_sq, (_P + 1) // 4, _P)
        if (y * y) % _P != y_sq:
            raise ECDSAError("point has no square root: not on curve")
        if (y & 1) != (data[0] & 1):
            y = _P - y
        key = cls(x=x, y=y)
        if len(cache.parsed) >= _PARSED_KEY_LIMIT:
            del cache.parsed[next(iter(cache.parsed))]
        cache.parsed[data] = key
        return key

    def verify(self, message_hash: bytes, signature: Signature,
               require_low_s: bool = False) -> bool:
        """Verify ``signature`` over a 32-byte ``message_hash``.

        ``require_low_s=True`` additionally rejects non-canonical high-S
        encodings (the malleable twin of every valid signature).  That is
        a *standardness* knob: consensus verification leaves it False so
        historical blocks carrying either encoding stay valid.
        """
        z = _message_scalar(message_hash)
        if require_low_s and not signature.is_low_s:
            return False
        return _verdicts([(self, z, signature.r, signature.s)])[0]


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private scalar."""

    secret: int

    def __post_init__(self) -> None:
        if not 0 < self.secret < CURVE_ORDER:
            raise ECDSAError("private key scalar out of range")

    @cached_property
    def public_key(self) -> PublicKey:
        """``secret * G``, derived once per key.  Not a field, so equality,
        hashing and ``repr`` see the secret only."""
        affine = _to_affine(_generator_multiply(self.secret))
        assert affine is not None  # secret is in (0, order)
        return PublicKey(x=affine[0], y=affine[1])

    def to_bytes(self) -> bytes:
        return self.secret.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 32:
            raise ECDSAError(f"private key must be 32 bytes, got {len(data)}")
        return cls(secret=int.from_bytes(data, "big"))

    def sign(self, message_hash: bytes) -> Signature:
        """Sign a 32-byte ``message_hash`` with an RFC 6979 nonce."""
        if len(message_hash) != 32:
            raise ECDSAError("message hash must be 32 bytes")
        z = int.from_bytes(message_hash, "big") % CURVE_ORDER
        for k in _rfc6979_nonces(self.secret, message_hash):
            affine = _to_affine(_generator_multiply(k))
            assert affine is not None
            r = affine[0] % CURVE_ORDER
            if r == 0:
                continue
            k_inv = pow(k, -1, CURVE_ORDER)
            s = (k_inv * (z + r * self.secret)) % CURVE_ORDER
            if s == 0:
                continue
            if s > CURVE_ORDER // 2:  # low-S normalization (BIP 62)
                s = CURVE_ORDER - s
            return Signature(r=r, s=s)
        raise ECDSAError("nonce generation exhausted")  # pragma: no cover


def _rfc6979_nonces(secret: int, message_hash: bytes):
    """Yield deterministic nonce candidates per RFC 6979 (SHA-256)."""
    x = secret.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac_sha256(k, v + b"\x00" + x + message_hash)
    v = hmac_sha256(k, v)
    k = hmac_sha256(k, v + b"\x01" + x + message_hash)
    v = hmac_sha256(k, v)
    while True:
        v = hmac_sha256(k, v)
        candidate = int.from_bytes(v, "big")
        if 0 < candidate < CURVE_ORDER:
            yield candidate
        k = hmac_sha256(k, v + b"\x00")
        v = hmac_sha256(k, v)


def generate_private_key(rng) -> PrivateKey:
    """Generate a private key; a seeded RNG gives reproducible keys."""
    while True:
        secret = rng.getrandbits(256)
        if 0 < secret < CURVE_ORDER:
            return PrivateKey(secret=secret)
