"""Transactions: inputs, outputs, serialization, txids, and sighashes.

The model is the Bitcoin/Multichain UTXO transaction: inputs reference
previous outputs by ``(txid, index)`` and carry an unlocking script;
outputs carry a value and a locking script; an optional ``locktime``
postpones validity (used by Listing 1's refund path).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple

from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError
from repro.script.errors import SerializationError
from repro.script.script import Script


def _parse_script(data: bytes) -> Script:
    """Script.from_bytes with the consensus error type on failure."""
    try:
        return Script.from_bytes(data)
    except SerializationError as exc:
        raise ValidationError(f"malformed script: {exc}") from exc

__all__ = [
    "OutPoint",
    "TxInput",
    "TxOutput",
    "Transaction",
    "SEQUENCE_FINAL",
    "LOCKTIME_THRESHOLD",
    "COINBASE_OUTPOINT",
    "SIGHASH_ALL",
]

SEQUENCE_FINAL = 0xFFFFFFFF
# Locktime values below this are block heights; above, unix timestamps.
LOCKTIME_THRESHOLD = 500_000_000
SIGHASH_ALL = 0x01

_NULL_TXID = b"\x00" * 32


def _write_varint(value: int) -> bytes:
    """Bitcoin CompactSize encoding."""
    if value < 0:
        raise ValidationError(f"varint cannot be negative: {value}")
    if value < 0xFD:
        return bytes([value])
    if value <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", value)
    if value <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", value)
    return b"\xff" + struct.pack("<Q", value)


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    if offset >= len(data):
        raise ValidationError("truncated varint")
    first = data[offset]
    if first < 0xFD:
        return first, offset + 1
    widths = {0xFD: ("<H", 2), 0xFE: ("<I", 4), 0xFF: ("<Q", 8)}
    fmt, width = widths[first]
    if offset + 1 + width > len(data):
        raise ValidationError("truncated varint body")
    return struct.unpack_from(fmt, data, offset + 1)[0], offset + 1 + width


def _read_bytes(data: bytes, offset: int, length: int) -> tuple[bytes, int]:
    if offset + length > len(data):
        raise ValidationError(f"truncated field of {length} bytes")
    return data[offset:offset + length], offset + length


class _OutPointFields(NamedTuple):
    txid: bytes
    index: int


class OutPoint(_OutPointFields):
    """Reference to a transaction output: ``(txid, index)``.

    A tuple record: hashing, equality and ordering are the tuple's, run in
    C (``hash(op) == hash((txid, index))``), and no instance has a
    ``__dict__`` -- the UTXO set holds hundreds of thousands of them.
    """

    __slots__ = ()

    def __new__(cls, txid: bytes, index: int) -> "OutPoint":
        if len(txid) != 32:
            raise ValidationError(f"txid must be 32 bytes, got {len(txid)}")
        if not 0 <= index <= SEQUENCE_FINAL:
            raise ValidationError(f"output index out of range: {index}")
        return tuple.__new__(cls, (txid, index))

    @property
    def is_coinbase(self) -> bool:
        return self.txid == _NULL_TXID and self.index == SEQUENCE_FINAL

    def serialize(self) -> bytes:
        return self.txid + struct.pack("<I", self.index)

    def __str__(self) -> str:
        return f"{self.txid.hex()[:16]}..:{self.index}"


COINBASE_OUTPOINT = OutPoint(txid=_NULL_TXID, index=SEQUENCE_FINAL)


@dataclass(frozen=True)
class TxInput:
    """A transaction input spending ``outpoint`` with ``script_sig``."""

    outpoint: OutPoint
    script_sig: Script = field(default_factory=Script)
    sequence: int = SEQUENCE_FINAL

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= SEQUENCE_FINAL:
            raise ValidationError(f"sequence out of range: {self.sequence}")

    def serialize(self) -> bytes:
        script_bytes = self.script_sig.to_bytes()
        return (
            self.outpoint.serialize()
            + _write_varint(len(script_bytes))
            + script_bytes
            + struct.pack("<I", self.sequence)
        )

    @classmethod
    def deserialize(cls, data: bytes, offset: int) -> tuple["TxInput", int]:
        txid, offset = _read_bytes(data, offset, 32)
        if offset + 4 > len(data):
            raise ValidationError("truncated outpoint index")
        index = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        script_len, offset = _read_varint(data, offset)
        script_bytes, offset = _read_bytes(data, offset, script_len)
        if offset + 4 > len(data):
            raise ValidationError("truncated sequence")
        sequence = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        return cls(
            outpoint=OutPoint(txid=txid, index=index),
            script_sig=_parse_script(script_bytes),
            sequence=sequence,
        ), offset


@dataclass(frozen=True)
class TxOutput:
    """A transaction output: ``value`` locked by ``script_pubkey``."""

    value: int
    script_pubkey: Script

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValidationError(f"output value cannot be negative: {self.value}")

    def serialize(self) -> bytes:
        script_bytes = self.script_pubkey.to_bytes()
        return (
            struct.pack("<q", self.value)
            + _write_varint(len(script_bytes))
            + script_bytes
        )

    @classmethod
    def deserialize(cls, data: bytes, offset: int) -> tuple["TxOutput", int]:
        if offset + 8 > len(data):
            raise ValidationError("truncated output value")
        value = struct.unpack_from("<q", data, offset)[0]
        offset += 8
        script_len, offset = _read_varint(data, offset)
        script_bytes, offset = _read_bytes(data, offset, script_len)
        return cls(
            value=value,
            script_pubkey=_parse_script(script_bytes),
        ), offset


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction; ``txid`` is the double-SHA256 of the wire form."""

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    locktime: int = 0
    version: int = 1

    def __init__(self, inputs: Iterable[TxInput], outputs: Iterable[TxOutput],
                 locktime: int = 0, version: int = 1) -> None:
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "locktime", locktime)
        object.__setattr__(self, "version", version)
        if not self.inputs:
            raise ValidationError("transaction has no inputs")
        if not self.outputs:
            raise ValidationError("transaction has no outputs")
        if not 0 <= locktime <= SEQUENCE_FINAL:
            raise ValidationError(f"locktime out of range: {locktime}")

    @cached_property
    def txid(self) -> bytes:
        return double_sha256(self._wire)

    @cached_property
    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].outpoint.is_coinbase

    @cached_property
    def outpoints(self) -> tuple[OutPoint, ...]:
        """``OutPoint(txid, i)`` for each output, built once: connect
        and the wallets' block scans read these."""
        txid = self.txid
        return tuple(OutPoint(txid, index)
                     for index in range(len(self.outputs)))

    @cached_property
    def total_output_value(self) -> int:
        return sum(output.value for output in self.outputs)

    @cached_property
    def _wire(self) -> bytes:
        """The wire form, built once: the transaction is immutable, and
        gossip sizes it on every send."""
        out = bytearray(struct.pack("<i", self.version))
        out += _write_varint(len(self.inputs))
        for tx_input in self.inputs:
            out += tx_input.serialize()
        out += _write_varint(len(self.outputs))
        for tx_output in self.outputs:
            out += tx_output.serialize()
        out += struct.pack("<I", self.locktime)
        return bytes(out)

    def serialize(self) -> bytes:
        return self._wire

    @classmethod
    def deserialize(cls, data: bytes) -> "Transaction":
        tx, offset = cls._deserialize_from(data, 0)
        if offset != len(data):
            raise ValidationError(
                f"{len(data) - offset} trailing bytes after transaction"
            )
        return tx

    @classmethod
    def _deserialize_from(cls, data: bytes, offset: int) -> tuple["Transaction", int]:
        if offset + 4 > len(data):
            raise ValidationError("truncated version")
        version = struct.unpack_from("<i", data, offset)[0]
        offset += 4
        input_count, offset = _read_varint(data, offset)
        inputs = []
        for _ in range(input_count):
            tx_input, offset = TxInput.deserialize(data, offset)
            inputs.append(tx_input)
        output_count, offset = _read_varint(data, offset)
        outputs = []
        for _ in range(output_count):
            tx_output, offset = TxOutput.deserialize(data, offset)
            outputs.append(tx_output)
        if offset + 4 > len(data):
            raise ValidationError("truncated locktime")
        locktime = struct.unpack_from("<I", data, offset)[0]
        offset += 4
        return cls(inputs=inputs, outputs=outputs,
                   locktime=locktime, version=version), offset

    def sighash(self, input_index: int, locking_script: Script) -> bytes:
        """The digest an input's signature commits to (SIGHASH_ALL): one
        spend of :meth:`sighash_many`."""
        return self.sighash_many([(input_index, locking_script)])[0]

    def sighash_many(self, spends: "list[tuple[int, Script]]"
                     ) -> list[bytes]:
        """SIGHASH_ALL digests, one per ``(input index, locking script
        being spent)`` pair.

        The preimage is the classic Bitcoin construction, which binds the
        signature to the entire transaction: every input's scriptSig is
        blanked except the signed input's, which becomes the locking script
        being spent.  Here the blanked inputs' wire forms are serialized
        once per call and only the signed input's is rebuilt per digest, so
        an ``n``-input transaction's full digest set costs ``O(n)`` script
        serializations, not ``O(n**2)`` (the preimage byte joins and hashes
        remain, as they must).  ``tests/oracles/sighash_reference.py``
        builds each preimage the classic way.
        """
        blank = Script()
        blank_parts = [replace(tx_input, script_sig=blank).serialize()
                       for tx_input in self.inputs]
        head = struct.pack("<i", self.version) + _write_varint(len(self.inputs))
        tail = (
            _write_varint(len(self.outputs))
            + b"".join(output.serialize() for output in self.outputs)
            + struct.pack("<I", self.locktime)
            + struct.pack("<I", SIGHASH_ALL)
        )
        digests: list[bytes] = []
        for input_index, locking_script in spends:
            if not 0 <= input_index < len(self.inputs):
                raise ValidationError(
                    f"input index {input_index} out of range "
                    f"(transaction has {len(self.inputs)} inputs)"
                )
            signed = replace(self.inputs[input_index],
                             script_sig=locking_script).serialize()
            parts = list(blank_parts)
            parts[input_index] = signed
            digests.append(double_sha256(head + b"".join(parts) + tail))
        return digests

    def with_input_script(self, input_index: int, script_sig: Script) -> "Transaction":
        """A copy of this transaction with one input's scriptSig replaced."""
        new_inputs = list(self.inputs)
        new_inputs[input_index] = replace(new_inputs[input_index],
                                          script_sig=script_sig)
        return Transaction(inputs=new_inputs, outputs=self.outputs,
                           locktime=self.locktime, version=self.version)

    def is_final(self, block_height: int, block_time: float) -> bool:
        """BIP-113-style finality: may this tx be included at this point?"""
        if self.locktime == 0:
            return True
        reference = (block_height if self.locktime < LOCKTIME_THRESHOLD
                     else block_time)
        if self.locktime <= reference:
            return True
        return all(tx_input.sequence == SEQUENCE_FINAL for tx_input in self.inputs)
