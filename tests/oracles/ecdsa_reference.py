"""The two-multiply ECDSA verifier: the oracle for ``repro.crypto.ecdsa``.

``verify_double_multiply`` and the plain double-and-add ladder under it:
two independent scalar multiplies, one add — no endomorphism, no signed
digits, no per-key table, nothing cached.  The curve arithmetic itself
(Jacobian add and double, the generator table, the affine conversion) is
the production module's; what this file keeps apart is the verification
*structure*.  ``tests/crypto/test_ecdsa_vectors.py`` and
``tests/crypto/test_ecdsa_core.py`` run every edge vector through this,
:meth:`PublicKey.verify` and ``verify_batch`` — at a first use, hot,
wide and after an eviction — and demand identical verdicts; ``_jacobian_multiply`` is also
the reference for the generator table, the ``lambda`` endomorphism and
the points ``_affine_sums`` is checked on;
``benchmarks/test_microbench_ecdsa.py`` prints its clock beside the core's.
"""

from __future__ import annotations

from repro.crypto.ecdsa import (CURVE_ORDER, ECDSAError, PublicKey, Signature,
                                _INFINITY, _generator_multiply, _jacobian_add,
                                _jacobian_double, _to_affine)

__all__ = ["verify_double_multiply"]


def _jacobian_multiply(point: tuple[int, int, int],
                       scalar: int) -> tuple[int, int, int]:
    scalar %= CURVE_ORDER
    result = _INFINITY
    addend = point
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return result


def verify_double_multiply(public_key: PublicKey, message_hash: bytes,
                           signature: Signature) -> bool:
    """The reference verifier: two independent multiplies."""
    if len(message_hash) != 32:
        raise ECDSAError("message hash must be 32 bytes")
    r, s = signature.r, signature.s
    if not (0 < r < CURVE_ORDER and 0 < s < CURVE_ORDER):
        return False
    z = int.from_bytes(message_hash, "big") % CURVE_ORDER
    s_inv = pow(s, -1, CURVE_ORDER)
    u1 = (z * s_inv) % CURVE_ORDER
    u2 = (r * s_inv) % CURVE_ORDER
    point = _jacobian_add(
        _generator_multiply(u1),
        _jacobian_multiply((public_key.x, public_key.y, 1), u2),
    )
    affine = _to_affine(point)
    if affine is None:
        return False
    return affine[0] % CURVE_ORDER == r
