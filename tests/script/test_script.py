"""Script container: serialization and number encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.script.errors import SerializationError
from repro.script.opcodes import OP, opcode_name
from repro.script.script import Script, decode_number, encode_number


# -- CScriptNum -------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (0, b""),
    (1, b"\x01"),
    (-1, b"\x81"),
    (127, b"\x7f"),
    (128, b"\x80\x00"),
    (-128, b"\x80\x80"),
    (255, b"\xff\x00"),
    (256, b"\x00\x01"),
    (520, b"\x08\x02"),
    (-255, b"\xff\x80"),
])
def test_number_encoding_known_values(value, expected):
    assert encode_number(value) == expected
    assert decode_number(expected) == value


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_number_roundtrip(value):
    assert decode_number(encode_number(value)) == value


def test_number_decode_respects_max_size():
    with pytest.raises(SerializationError):
        decode_number(b"\x01" * 6, max_size=5)


def test_negative_zero_decodes_to_zero():
    assert decode_number(b"\x80") == 0


# -- Script construction -----------------------------------------------------

def test_construct_from_mixed_elements():
    script = Script([OP.OP_DUP, b"\xab" * 20, OP.OP_CHECKSIG])
    assert script.elements == (int(OP.OP_DUP), b"\xab" * 20, int(OP.OP_CHECKSIG))


def test_rejects_invalid_opcode_values():
    with pytest.raises(SerializationError):
        Script([256])
    with pytest.raises(SerializationError):
        Script([-1])


def test_rejects_non_bytes_non_int():
    with pytest.raises(SerializationError):
        Script(["OP_DUP"])  # type: ignore[list-item]


def test_rejects_oversized_push():
    with pytest.raises(SerializationError):
        Script([b"\x00" * 521])


# -- wire format -------------------------------------------------------------

@pytest.mark.parametrize("push_len", [1, 75, 76, 255, 256, 520])
def test_serialization_roundtrip_push_sizes(push_len):
    script = Script([bytes(push_len), OP.OP_EQUAL])
    parsed = Script.from_bytes(script.to_bytes())
    assert parsed.elements == script.elements


def test_wire_format_direct_push():
    data = Script([b"\xaa\xbb"]).to_bytes()
    assert data == b"\x02\xaa\xbb"


def test_wire_format_pushdata1():
    data = Script([bytes(100)]).to_bytes()
    assert data[0] == OP.OP_PUSHDATA1
    assert data[1] == 100


def test_wire_format_pushdata2():
    data = Script([bytes(300)]).to_bytes()
    assert data[0] == OP.OP_PUSHDATA2


def test_wire_format_empty_push_is_op0():
    assert Script([b""]).to_bytes() == bytes([OP.OP_0])


def test_parse_rejects_truncated_push():
    with pytest.raises(SerializationError):
        Script.from_bytes(b"\x05\xaa")


def test_parse_rejects_truncated_pushdata1():
    with pytest.raises(SerializationError):
        Script.from_bytes(bytes([OP.OP_PUSHDATA1]))


def test_parse_rejects_pushdata4():
    with pytest.raises(SerializationError):
        Script.from_bytes(bytes([OP.OP_PUSHDATA4, 0, 0, 0, 0]))


@given(st.lists(
    st.one_of(
        st.sampled_from([int(OP.OP_DUP), int(OP.OP_HASH160),
                         int(OP.OP_EQUALVERIFY), int(OP.OP_CHECKSIG),
                         int(OP.OP_IF), int(OP.OP_ENDIF)]),
        st.binary(min_size=1, max_size=80),
    ),
    max_size=20,
))
def test_arbitrary_roundtrip(elements):
    script = Script(elements)
    assert Script.from_bytes(script.to_bytes()).elements == script.elements


def test_disassemble():
    text = Script([OP.OP_DUP, b"\xab" * 20]).disassemble()
    assert "OP_DUP" in text
    assert "<20:" in text


def test_opcode_name_unknown():
    assert "UNKNOWN" in opcode_name(0xFE)
    assert opcode_name(OP.OP_CHECKRSA512PAIR) == "OP_CHECKRSA512PAIR"
