"""The :class:`Script` container: a parsed sequence of opcodes and pushes.

Scripts serialize to the Bitcoin wire format (direct pushes for 1-75 bytes,
``OP_PUSHDATA1/2/4`` beyond) so transaction hashes are stable, and parse
back into a list of :class:`ScriptElement` for the interpreter.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.script.errors import SerializationError
from repro.script.opcodes import OP, opcode_name

__all__ = ["Script", "ScriptElement", "encode_number", "decode_number"]

# An element is either an opcode (int / OP) or a data push (bytes).
ScriptElement = Union[int, bytes]

_MAX_SCRIPT_SIZE = 10_000
_MAX_PUSH_SIZE = 520


def encode_number(value: int) -> bytes:
    """Encode an integer as a minimal Bitcoin CScriptNum byte string."""
    if value == 0:
        return b""
    negative = value < 0
    magnitude = abs(value)
    result = bytearray()
    while magnitude:
        result.append(magnitude & 0xFF)
        magnitude >>= 8
    # If the top bit of the most significant byte is set, we need an extra
    # byte to carry the sign, otherwise the sign lives in that top bit.
    if result[-1] & 0x80:
        result.append(0x80 if negative else 0x00)
    elif negative:
        result[-1] |= 0x80
    return bytes(result)


def decode_number(data: bytes, max_size: int = 5) -> int:
    """Decode a CScriptNum byte string (little-endian, sign-magnitude)."""
    if len(data) > max_size:
        raise SerializationError(
            f"script number overflow: {len(data)} > {max_size} bytes"
        )
    if not data:
        return 0
    value = int.from_bytes(data, "little")
    if data[-1] & 0x80:
        value &= (1 << (len(data) * 8 - 1)) - 1
        return -value
    return value


@dataclass(frozen=True)
class Script:
    """An immutable script: a tuple of opcodes and byte pushes.

    Construct from elements (``Script([OP.OP_DUP, pubkey_hash, ...])``) or
    parse wire bytes with :meth:`from_bytes`.  Integers outside the opcode
    range are not accepted as elements — push numbers as
    ``encode_number(n)`` byte strings or via :meth:`push_int`.
    """

    elements: tuple[ScriptElement, ...] = field(default_factory=tuple)

    def __init__(self, elements: Iterable[ScriptElement] = ()) -> None:
        normalized: list[ScriptElement] = []
        for element in elements:
            if isinstance(element, (bytes, bytearray, memoryview)):
                data = bytes(element)
                if len(data) > _MAX_PUSH_SIZE:
                    raise SerializationError(
                        f"push too large: {len(data)} > {_MAX_PUSH_SIZE} bytes"
                    )
                normalized.append(data)
            elif isinstance(element, int):
                if not 0 <= element <= 0xFF:
                    raise SerializationError(f"invalid opcode value: {element}")
                normalized.append(int(element))
            else:
                raise SerializationError(
                    f"script element must be bytes or opcode, got "
                    f"{type(element).__name__}"
                )
        object.__setattr__(self, "elements", tuple(normalized))

    def to_bytes(self) -> bytes:
        """Serialize to the Bitcoin wire format."""
        out = bytearray()
        for element in self.elements:
            if isinstance(element, bytes):
                length = len(element)
                if length == 0:
                    out.append(OP.OP_0)
                elif length <= 75:
                    out.append(length)
                    out += element
                elif length <= 0xFF:
                    out.append(OP.OP_PUSHDATA1)
                    out.append(length)
                    out += element
                else:
                    out.append(OP.OP_PUSHDATA2)
                    out += struct.pack("<H", length)
                    out += element
            else:
                out.append(element)
        if len(out) > _MAX_SCRIPT_SIZE:
            raise SerializationError(
                f"script too large: {len(out)} > {_MAX_SCRIPT_SIZE} bytes"
            )
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Script":
        """Parse wire bytes back into a script."""
        if len(data) > _MAX_SCRIPT_SIZE:
            raise SerializationError(
                f"script too large: {len(data)} > {_MAX_SCRIPT_SIZE} bytes"
            )
        elements: list[ScriptElement] = []
        i = 0
        while i < len(data):
            opcode = data[i]
            i += 1
            if opcode == OP.OP_0:
                elements.append(b"")
            elif 1 <= opcode <= 75:
                elements.append(cls._take(data, i, opcode))
                i += opcode
            elif opcode == OP.OP_PUSHDATA1:
                if i >= len(data):
                    raise SerializationError("truncated OP_PUSHDATA1 length")
                length = data[i]
                i += 1
                elements.append(cls._take(data, i, length))
                i += length
            elif opcode == OP.OP_PUSHDATA2:
                if i + 2 > len(data):
                    raise SerializationError("truncated OP_PUSHDATA2 length")
                length = struct.unpack_from("<H", data, i)[0]
                i += 2
                elements.append(cls._take(data, i, length))
                i += length
            elif opcode == OP.OP_PUSHDATA4:
                raise SerializationError("OP_PUSHDATA4 pushes exceed limits")
            else:
                elements.append(opcode)
        return cls(elements)

    @staticmethod
    def _take(data: bytes, offset: int, length: int) -> bytes:
        if offset + length > len(data):
            raise SerializationError(
                f"push of {length} bytes runs past end of script"
            )
        if length > _MAX_PUSH_SIZE:
            raise SerializationError(
                f"push too large: {length} > {_MAX_PUSH_SIZE} bytes"
            )
        return data[offset:offset + length]

    def disassemble(self) -> str:
        """Readable one-line form, e.g. ``OP_DUP OP_HASH160 <20:ab..> ...``."""
        parts = []
        for element in self.elements:
            if isinstance(element, bytes):
                preview = element.hex()
                if len(preview) > 16:
                    preview = preview[:16] + ".."
                parts.append(f"<{len(element)}:{preview}>")
            else:
                parts.append(opcode_name(element))
        return " ".join(parts)
