"""A minimal ASN.1 DER-style encoder/decoder.

Paper section 5.4: the resource page "is stored in ASN1 format for the
JPA to include it into the GUI".  This module implements the small subset
of DER (definite-length, tag-length-value) needed to serialize resource
pages: booleans, integers, reals (as ISO-6093 decimal strings, the way
ASN.1 REAL base-10 works), UTF-8 strings, nulls, sequences, and maps
(encoded as a sequence of key/value pairs).

The encoding round-trips arbitrarily nested Python structures built from
``bool``, ``int``, ``float``, ``str``, ``None``, ``list`` and ``dict``
(string keys) up to :data:`~repro.bytereader.MAX_DEPTH` containers
deep.  The decoder reads through a :class:`~repro.bytereader.ByteReader`,
so any other input is a :class:`ResourcePageError`.
"""

from __future__ import annotations

import typing

from repro.bytereader import ByteReader
from repro.resources.errors import ResourcePageError

__all__ = ["encode", "decode"]

# DER universal tags (SEQUENCE with constructed bit set).
_TAG_BOOL = 0x01
_TAG_INT = 0x02
_TAG_NULL = 0x05
_TAG_REAL = 0x09
_TAG_UTF8 = 0x0C
_TAG_SEQ = 0x30
# Private tag for maps (context-specific, constructed).
_TAG_MAP = 0xA0

Value = typing.Union[
    bool, int, float, str, None, list[typing.Any], dict[str, typing.Any]
]


def _encode_length(n: int) -> bytes:
    """DER definite-length encoding."""
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + _encode_length(len(content)) + content


def encode(value: Value) -> bytes:
    """Encode ``value`` into DER-style bytes."""
    # bool must be tested before int (bool is a subclass of int).
    if value is None:
        return _tlv(_TAG_NULL, b"")
    if isinstance(value, bool):
        return _tlv(_TAG_BOOL, b"\xff" if value else b"\x00")
    if isinstance(value, int):
        length = max(1, (value.bit_length() + 8) // 8)  # room for sign bit
        return _tlv(_TAG_INT, value.to_bytes(length, "big", signed=True))
    if isinstance(value, float):
        # ASN.1 REAL, base-10 form (ISO 6093 NR3): decimal text.
        return _tlv(_TAG_REAL, repr(value).encode("ascii"))
    if isinstance(value, str):
        return _tlv(_TAG_UTF8, value.encode("utf-8"))
    if isinstance(value, list):
        return _tlv(_TAG_SEQ, b"".join(encode(v) for v in value))
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise ResourcePageError(f"map keys must be strings, got {key!r}")
            parts.append(encode(key))
            parts.append(encode(value[key]))
        return _tlv(_TAG_MAP, b"".join(parts))
    raise ResourcePageError(f"cannot ASN.1-encode {type(value).__name__}")


def _decode_value(r: ByteReader[bytes]) -> Value:
    tag = r.u8()
    length = r.u8()
    if length & 0x80:  # long form: the low bits count the length octets
        if length == 0x80:
            raise r.error("indefinite ASN.1 length")
        length = int.from_bytes(r.take(length & 0x7F), "big")
    if tag == _TAG_SEQ:
        items: list[Value] = []
        with r.nest(length):
            while r.remaining:
                items.append(_decode_value(r))
        return items
    if tag == _TAG_MAP:
        result: dict[str, Value] = {}
        with r.nest(length):
            while r.remaining:
                key = _decode_value(r)
                if not r.remaining:
                    raise r.error("map with dangling key")
                if not isinstance(key, str):
                    raise r.error(f"map key must decode to str, got {key!r}")
                result[key] = _decode_value(r)
        return result
    if tag == _TAG_UTF8:
        return r.text(length)
    if tag == _TAG_REAL:
        text = r.text(length, "ascii")
        try:
            return float(text)
        except ValueError as err:
            raise r.error(f"malformed REAL: {err}") from None
    body = r.take(length)
    if tag == _TAG_NULL and not body:
        return None
    if tag == _TAG_BOOL and body in (b"\x00", b"\xff"):
        return body == b"\xff"
    if tag == _TAG_INT and body:
        return int.from_bytes(body, "big", signed=True)
    raise r.error(f"no ASN.1 value is tag {tag:#04x} with {length} content bytes")


def decode(data: bytes) -> Value:
    """Decode DER-style bytes produced by :func:`encode`."""
    r = ByteReader(data, ResourcePageError)
    value = _decode_value(r)
    r.end()
    return value
