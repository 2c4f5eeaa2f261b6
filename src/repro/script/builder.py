"""Script templates used by BcWAN.

The centrepiece is :func:`ephemeral_key_release`, a faithful transcription
of the paper's Listing 1 ("Ephemeral Private Key Release Script"):

.. code-block:: none

    <rsaPubKey>
    OP_CHECKRSA512PAIR
    OP_IF
        OP_DUP OP_HASH160 <pubKeyHash> OP_EQUALVERIFY
    OP_ELSE
        <block_height+100> OP_CHECKLOCKTIMEVERIFY OP_VERIFY
        OP_DUP OP_HASH160 <buyerPubkeyHash> OP_EQUALVERIFY
    OP_ENDIF
    OP_CHECKSIG

The IF branch pays the *gateway* once it reveals the ephemeral RSA-512
private key matching ``<rsaPubKey>``; the ELSE branch refunds the *buyer*
(the recipient) after the locktime if the gateway never claims.
"""

from __future__ import annotations

from repro.script.errors import SerializationError
from repro.script.opcodes import OP
from repro.script.script import Script, decode_number, encode_number

__all__ = [
    "p2pkh_locking",
    "p2pkh_unlocking",
    "op_return",
    "op_return_data",
    "ephemeral_key_release",
    "parse_ephemeral_key_release",
    "key_release_claim",
    "key_release_refund",
    "RSA_PAIR_PLACEHOLDER",
]

# Pushed in place of the RSA private key when taking the refund branch; any
# byte string that does not parse as a matching key works, this one is
# self-describing in transaction dumps.
RSA_PAIR_PLACEHOLDER = b"\x00"


def p2pkh_locking(pubkey_hash: bytes) -> Script:
    """Standard pay-to-pubkey-hash locking script."""
    if len(pubkey_hash) != 20:
        raise ValueError(f"pubkey hash must be 20 bytes, got {len(pubkey_hash)}")
    return Script([
        OP.OP_DUP, OP.OP_HASH160, pubkey_hash,
        OP.OP_EQUALVERIFY, OP.OP_CHECKSIG,
    ])


def p2pkh_unlocking(signature: bytes, pubkey: bytes) -> Script:
    """Standard pay-to-pubkey-hash unlocking script."""
    return Script([signature, pubkey])


def op_return(data: bytes) -> Script:
    """A provably-unspendable data-carrier output.

    BcWAN publishes gateway IP announcements this way (paper section 5.1:
    "We used the OP_RETURN script operator to [broadcast the node IP]").
    """
    return Script([OP.OP_RETURN, data])


def op_return_data(script: Script) -> bytes | None:
    """The data an :func:`op_return` script carries, else ``None``."""
    elements = script.elements
    if (len(elements) == 2 and elements[0] == OP.OP_RETURN
            and isinstance(elements[1], bytes)):
        return elements[1]
    return None


def ephemeral_key_release(rsa_pubkey: bytes, gateway_pubkey_hash: bytes,
                          buyer_pubkey_hash: bytes,
                          refund_locktime: int) -> Script:
    """Listing 1: lock an output to the revelation of an RSA private key.

    :param rsa_pubkey: serialized ephemeral RSA-512 public key (``ePk``)
    :param gateway_pubkey_hash: HASH160 of the gateway's ECDSA public key —
        paid when the matching private key (``eSk``) is revealed
    :param buyer_pubkey_hash: HASH160 of the recipient's ECDSA public key —
        refunded once ``refund_locktime`` passes
    :param refund_locktime: absolute block height (the paper uses
        ``block_height + 100``) after which the refund path opens
    """
    for name, value in (("gateway", gateway_pubkey_hash), ("buyer", buyer_pubkey_hash)):
        if len(value) != 20:
            raise ValueError(f"{name} pubkey hash must be 20 bytes, got {len(value)}")
    if refund_locktime < 0:
        raise ValueError(f"refund locktime must be non-negative: {refund_locktime}")
    return Script([
        rsa_pubkey,
        OP.OP_CHECKRSA512PAIR,
        OP.OP_IF,
        OP.OP_DUP, OP.OP_HASH160, gateway_pubkey_hash, OP.OP_EQUALVERIFY,
        OP.OP_ELSE,
        encode_number(refund_locktime),
        OP.OP_CHECKLOCKTIMEVERIFY,
        OP.OP_VERIFY,
        OP.OP_DUP, OP.OP_HASH160, buyer_pubkey_hash, OP.OP_EQUALVERIFY,
        OP.OP_ENDIF,
        OP.OP_CHECKSIG,
    ])


def parse_ephemeral_key_release(script: Script):
    """Recognize a Listing-1 locking script.

    Returns ``(rsa_pubkey, gateway_pubkey_hash, buyer_pubkey_hash,
    refund_locktime)`` or ``None`` if the script has a different shape.
    The gateway uses this to audit an incoming offer before revealing its
    ephemeral private key: right template, right key, right payee.
    """
    elements = script.elements
    if len(elements) != 17:
        return None
    checks = (
        isinstance(elements[0], bytes)
        and elements[1] == OP.OP_CHECKRSA512PAIR
        and elements[2] == OP.OP_IF
        and elements[3] == OP.OP_DUP
        and elements[4] == OP.OP_HASH160
        and isinstance(elements[5], bytes) and len(elements[5]) == 20
        and elements[6] == OP.OP_EQUALVERIFY
        and elements[7] == OP.OP_ELSE
        and isinstance(elements[8], bytes)
        and elements[9] == OP.OP_CHECKLOCKTIMEVERIFY
        and elements[10] == OP.OP_VERIFY
        and elements[11] == OP.OP_DUP
        and elements[12] == OP.OP_HASH160
        and isinstance(elements[13], bytes) and len(elements[13]) == 20
        and elements[14] == OP.OP_EQUALVERIFY
        and elements[15] == OP.OP_ENDIF
        and elements[16] == OP.OP_CHECKSIG
    )
    if not checks:
        return None
    try:
        locktime = decode_number(elements[8], max_size=5)
    except SerializationError:
        return None
    return elements[0], elements[5], elements[13], locktime


def key_release_claim(signature: bytes, gateway_pubkey: bytes,
                      rsa_private_key: bytes) -> Script:
    """Unlocking script for the gateway's claim path of Listing 1.

    Publishing this script on-chain *reveals* ``rsa_private_key`` — that is
    the whole point: the recipient reads ``eSk`` from the spending
    transaction and decrypts the wrapped message.
    """
    return Script([signature, gateway_pubkey, rsa_private_key])


def key_release_refund(signature: bytes, buyer_pubkey: bytes) -> Script:
    """Unlocking script for the buyer's refund path of Listing 1.

    Pushes a placeholder where the RSA private key would go so that
    ``OP_CHECKRSA512PAIR`` evaluates false and execution falls through to
    the timelocked OP_ELSE branch.
    """
    return Script([signature, buyer_pubkey, RSA_PAIR_PLACEHOLDER])
