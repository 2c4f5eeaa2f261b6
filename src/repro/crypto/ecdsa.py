"""ECDSA over secp256k1, implemented from scratch.

The blockchain substrate signs transactions with ECDSA exactly as
Bitcoin/Multichain do (paper section 2 describes scripting around "ECDSA
signatures and keys").  Nonces are deterministic per RFC 6979 so that
signing is reproducible in simulation and never reuses a nonce.

Points are handled in Jacobian coordinates for speed; signatures are
low-S normalized (BIP 62) and serialized as the compact 64-byte ``r || s``
form, which keeps the script interpreter simple compared to DER.

Verification computes ``u1*G + u2*Q`` with Shamir's trick: both scalars
are recoded to width-w NAF and walked in one interleaved ladder, sharing
the 256 doublings that the two separate multiplies each paid on their
own.  The generator's odd multiples are built once at import; each public
key's odd multiples are kept in a small bounded cache so a key that
verifies many signatures (a busy gateway) pays its table once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


# Mixed addition: q comes from a precomputed table whose entries are
# normalized to affine (z == 1), which drops the z2-dependent work of the
# generic formula (~30% fewer field multiplications per add).
def _jacobian_add_affine(p: tuple[int, int, int],
                         q: tuple[int, int, int]) -> tuple[int, int, int]:
    if not p[2]:
        return q
    x1, y1, z1 = p
    x2, y2, _one = q
    z1sq = (z1 * z1) % _P
    u2 = (x2 * z1sq) % _P
    s2 = (y2 * z1sq * z1) % _P
    if x1 == u2:
        if y1 != s2:
            return _INFINITY
        return _jacobian_double(p)
    h = (u2 - x1) % _P
    r = (s2 - y1) % _P
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


# Fixed-base acceleration: precompute base, 2*base, 3*base, ... for each
# w-bit window of the scalar, then normalize every table entry to affine
# so lookups feed the cheap mixed addition above.  A multiply becomes
# doubling-free — one lookup + one mixed add per nonzero window.  The
# generator affords a wide 8-bit window (32 windows, 255 entries each,
# built once at import); per-pubkey tables stay at 4 bits to keep the
# on-demand build cost amortizable.
_WINDOW_BITS = 4
_GENERATOR_WINDOW_BITS = 8


def _build_window_tables(base: tuple[int, int, int],
                         window_bits: int = _WINDOW_BITS,
                         ) -> list[list[tuple[int, int, int]]]:
    """Affine per-window multiples: ``tables[w][d] == d * 2**(w*bits) * base``."""
    windows = (256 + window_bits - 1) // window_bits
    tables: list[list[tuple[int, int, int]]] = []
    for _window in range(windows):
        row = [_INFINITY]
        current = _INFINITY
        for _ in range((1 << window_bits) - 1):
            current = _jacobian_add(current, base)
            row.append(current)
        tables.append(row)
        for _ in range(window_bits):
            base = _jacobian_double(base)
    # One Montgomery pass flattens every entry to z == 1.
    flat = [entry for row in tables for entry in row if entry[2]]
    inverses = iter(_batch_inverse([entry[2] for entry in flat], _P))
    normalized = []
    for row in tables:
        new_row = []
        for entry in row:
            if not entry[2]:
                new_row.append(entry)
                continue
            x, y, _z = entry
            z_inv = next(inverses)
            z_inv_sq = (z_inv * z_inv) % _P
            new_row.append(((x * z_inv_sq) % _P,
                            (y * z_inv_sq * z_inv) % _P, 1))
        normalized.append(new_row)
    return normalized


_G_TABLES = _build_window_tables((_GX, _GY, 1), _GENERATOR_WINDOW_BITS)


def _windowed_multiply(tables: list[list[tuple[int, int, int]]],
                       scalar: int) -> tuple[int, int, int]:
    """``scalar * base`` via ``base``'s precomputed window tables.

    Doubling-free: each window is one table lookup plus one mixed add.
    The window width is recovered from the table shape, so generator
    (8-bit) and pubkey (4-bit) tables share this walk.
    """
    mask = len(tables[0]) - 1
    shift = mask.bit_length()
    scalar %= CURVE_ORDER
    result = _INFINITY
    window = 0
    while scalar:
        digit = scalar & mask
        if digit:
            result = _jacobian_add_affine(result, tables[window][digit])
        scalar >>= shift
        window += 1
    return result


def _generator_multiply(scalar: int) -> tuple[int, int, int]:
    """``scalar * G`` via the precomputed window tables."""
    return _windowed_multiply(_G_TABLES, scalar)


def _to_affine(point: tuple[int, int, int]) -> Optional[tuple[int, int]]:
    x, y, z = point
    if not z:
        return None
    z_inv = pow(z, -1, _P)
    z_inv_sq = (z_inv * z_inv) % _P
    return (x * z_inv_sq) % _P, (y * z_inv_sq * z_inv) % _P


def _point_on_curve(x: int, y: int) -> bool:
    return (y * y - x * x * x - _B) % _P == 0


_G_JACOBIAN = (_GX, _GY, 1)


# --- Shamir's trick: interleaved dual-scalar multiplication ----------------
#
# verify() needs u1*G + u2*Q.  Doing the multiplies separately costs two
# full ladders (~512 doublings); recoding both scalars to width-w NAF and
# walking them in one interleaved pass shares the ~256 doublings and adds
# only a sparse stream of table lookups (~256/(w+1) per scalar).

_G_NAF_WIDTH = 6       # generator table is built once, afford a wide window
_PUBKEY_NAF_WIDTH = 5  # per-key tables are built on demand, keep them small

# Bound on cached per-pubkey tables: FIFO, like the engine's script cache —
# entries are immutable, so recency tracking buys nothing over FIFO.
_PUBKEY_TABLE_LIMIT = 256


def _wnaf(scalar: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form, least-significant digit first.

    Every non-zero digit is odd and within ``(-2**(w-1), 2**(w-1))``, and
    any two non-zero digits are at least ``width`` positions apart.
    """
    digits: list[int] = []
    while scalar:
        if scalar & 1:
            digit = scalar & ((1 << width) - 1)
            if digit >= 1 << (width - 1):
                digit -= 1 << width
            scalar -= digit
        else:
            digit = 0
        digits.append(digit)
        scalar >>= 1
    return digits


def _odd_multiples(point: tuple[int, int, int],
                   count: int) -> list[tuple[int, int, int]]:
    """``[P, 3P, 5P, ..., (2*count - 1)P]`` in Jacobian coordinates."""
    table = [point]
    twice = _jacobian_double(point)
    for _ in range(count - 1):
        table.append(_jacobian_add(table[-1], twice))
    return table


_G_NAF_TABLE = _odd_multiples(_G_JACOBIAN, 1 << (_G_NAF_WIDTH - 2))

_pubkey_naf_tables: dict[tuple[int, int], list[tuple[int, int, int]]] = {}


def _pubkey_naf_table(x: int, y: int) -> list[tuple[int, int, int]]:
    table = _pubkey_naf_tables.get((x, y))
    if table is None:
        table = _odd_multiples((x, y, 1), 1 << (_PUBKEY_NAF_WIDTH - 2))
        if len(_pubkey_naf_tables) >= _PUBKEY_TABLE_LIMIT:
            _pubkey_naf_tables.pop(next(iter(_pubkey_naf_tables)))
        _pubkey_naf_tables[(x, y)] = table
    return table


def _negate(point: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = point
    return (x, (-y) % _P, z)


def _shamir_multiply(u1: int, u2: int,
                     qx: int, qy: int) -> tuple[int, int, int]:
    """``u1*G + u2*Q`` via one interleaved width-w NAF ladder."""
    naf_g = _wnaf(u1 % CURVE_ORDER, _G_NAF_WIDTH)
    naf_q = _wnaf(u2 % CURVE_ORDER, _PUBKEY_NAF_WIDTH)
    table_q = _pubkey_naf_table(qx, qy) if naf_q else ()
    result = _INFINITY
    for i in range(max(len(naf_g), len(naf_q)) - 1, -1, -1):
        result = _jacobian_double(result)
        if i < len(naf_g):
            digit = naf_g[i]
            if digit > 0:
                result = _jacobian_add(result, _G_NAF_TABLE[digit >> 1])
            elif digit < 0:
                result = _jacobian_add(result, _negate(_G_NAF_TABLE[-digit >> 1]))
        if i < len(naf_q):
            digit = naf_q[i]
            if digit > 0:
                result = _jacobian_add(result, table_q[digit >> 1])
            elif digit < 0:
                result = _jacobian_add(result, _negate(table_q[-digit >> 1]))
    return result


# --- Cross-signature batch verification ------------------------------------
#
# A block (or a busy mempool window) verifies many signatures at once, and
# in the BcWAN deployment most of them come from a handful of gateway
# keys.  verify_batch() exploits both axes:
#
# * a pubkey seen often enough gets the same doubling-free affine window
#   tables the generator enjoys, so u1*G + u2*Q drops from ~256 doublings
#   + ~94 additions (the Shamir ladder) to ~32 + ~64 mixed additions —
#   the table build (~1.2k point ops) amortizes after about six
#   signatures;
# * every modular inversion in the batch (the s**-1 scalars mod n, the
#   z**-1 affine conversions mod p) collapses into one inversion plus
#   3(k-1) multiplications via Montgomery's trick.
#
# Verdicts are bit-identical to calling PublicKey.verify() per signature:
# both paths compute the same group element and compare the same affine
# x coordinate, only the coordinate bookkeeping differs.

#: Signatures a pubkey must contribute to one batch before the fixed-base
#: window tables are built for it (build cost ~= six Shamir ladders).
_FIXED_TABLE_THRESHOLD = 6

#: FIFO bound on cached per-pubkey window tables (1024 points each).
_FIXED_TABLE_LIMIT = 16

_pubkey_fixed_tables: dict[tuple[int, int],
                           list[list[tuple[int, int, int]]]] = {}


def _pubkey_window_tables(x: int, y: int) -> list[list[tuple[int, int, int]]]:
    tables = _pubkey_fixed_tables.get((x, y))
    if tables is None:
        tables = _build_window_tables((x, y, 1))
        if len(_pubkey_fixed_tables) >= _FIXED_TABLE_LIMIT:
            _pubkey_fixed_tables.pop(next(iter(_pubkey_fixed_tables)))
        _pubkey_fixed_tables[(x, y)] = tables
    return tables


def verify_batch(items: "list[tuple[PublicKey, bytes, Signature]]"
                 ) -> list[bool]:
    """Verify ``(public_key, message_hash, signature)`` triples together.

    Returns one verdict per item, bit-identical to
    ``public_key.verify(message_hash, signature)`` (with the default
    ``require_low_s=False``) — the batch machinery changes where the
    work happens, never what is accepted.
    """
    verdicts: list[bool] = [False] * len(items)
    live: list[tuple[int, "PublicKey", int, int, int]] = []
    for index, (public_key, message_hash, signature) in enumerate(items):
        if len(message_hash) != 32:
            raise ECDSAError("message hash must be 32 bytes")
        r, s = signature.r, signature.s
        if not (0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER):
            continue  # verdict stays False, as verify() would return
        z = int.from_bytes(message_hash, "big") % CURVE_ORDER
        live.append((index, public_key, z, r, s))

    s_inverses = _batch_inverse([entry[4] for entry in live], CURVE_ORDER)

    counts: dict[tuple[int, int], int] = {}
    for _, public_key, _, _, _ in live:
        key = (public_key.x, public_key.y)
        counts[key] = counts.get(key, 0) + 1

    points: list[tuple[int, int, tuple[int, int, int]]] = []
    for (index, public_key, z, r, s), s_inv in zip(live, s_inverses):
        u1 = (z * s_inv) % CURVE_ORDER
        u2 = (r * s_inv) % CURVE_ORDER
        key = (public_key.x, public_key.y)
        if counts[key] >= _FIXED_TABLE_THRESHOLD or key in _pubkey_fixed_tables:
            point = _jacobian_add(
                _windowed_multiply(_G_TABLES, u1),
                _windowed_multiply(_pubkey_window_tables(*key), u2),
            )
        else:
            point = _shamir_multiply(u1, u2, public_key.x, public_key.y)
        points.append((index, r, point))

    finite = [(index, r, point) for index, r, point in points if point[2]]
    z_inverses = _batch_inverse([point[2] for _, _, point in finite], _P)
    for (index, r, point), z_inv in zip(finite, z_inverses):
        x_affine = (point[0] * z_inv * z_inv) % _P
        verdicts[index] = x_affine % CURVE_ORDER == r
    return verdicts


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
        if not _point_on_curve(self.x, self.y):
            raise ECDSAError("public key point is not on secp256k1")

    def to_bytes(self) -> bytes:
        """SEC1 compressed serialization (33 bytes)."""
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) != 33 or data[0] not in (2, 3):
            raise ECDSAError(
                f"expected 33-byte compressed point, got {len(data)} bytes"
            )
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise ECDSAError("x coordinate out of field range")
        y_sq = (pow(x, 3, _P) + _B) % _P
        y = pow(y_sq, (_P + 1) // 4, _P)
        if (y * y) % _P != y_sq:
            raise ECDSAError("point has no square root: not on curve")
        if (y & 1) != (data[0] & 1):
            y = _P - y
        return cls(x=x, y=y)

    def verify(self, message_hash: bytes, signature: Signature,
               require_low_s: bool = False) -> bool:
        """Verify ``signature`` over a 32-byte ``message_hash``.

        ``require_low_s=True`` additionally rejects non-canonical high-S
        encodings (the malleable twin of every valid signature).  That is
        a *standardness* knob: consensus verification leaves it False so
        historical blocks carrying either encoding stay valid.
        """
        if len(message_hash) != 32:
            raise ECDSAError("message hash must be 32 bytes")
        r, s = signature.r, signature.s
        if not (0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER):
            return False
        if require_low_s and not signature.is_low_s:
            return False
        z = int.from_bytes(message_hash, "big") % CURVE_ORDER
        s_inv = pow(s, -1, CURVE_ORDER)
        u1 = (z * s_inv) % CURVE_ORDER
        u2 = (r * s_inv) % CURVE_ORDER
        affine = _to_affine(_shamir_multiply(u1, u2, self.x, self.y))
        if affine is None:
            return False
        return affine[0] % CURVE_ORDER == r


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


def generate_private_key(rng=None) -> PrivateKey:
    """Generate a private key; pass a seeded RNG for reproducible keys."""
    import random as _random
    rng = rng or _random.SystemRandom()
    while True:
        secret = rng.getrandbits(256)
        if 0 < secret < CURVE_ORDER:
            return PrivateKey(secret=secret)
