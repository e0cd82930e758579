"""The one value codec: ASN.1 DER-style tag-length-value.

Paper section 5.4: the resource page "is stored in ASN1 format for the
JPA to include it into the GUI".  This module implements the small
subset of DER that format needs, and every plain value this repo puts
into bytes outside the AJO rides it: resource pages, storage rows
(:class:`repro.storage.Table`), grid snapshots
(:class:`repro.grid.GridSnapshot`), the socket MSG body
(:mod:`repro.net.wire`), the stream OPEN preamble
(:mod:`repro.net.stream`) and the protocol replies
(:mod:`repro.protocol.views`).

======  ============  =================  ==================================
tag     ASN.1 type    Python             content
======  ============  =================  ==================================
0x05    NULL          ``None``           empty
0x01    BOOLEAN       ``bool``           ``0x00`` or ``0xFF``
0x02    INTEGER       ``int``            big-endian two's complement
0x04    OCTET STRING  ``bytes``          the bytes, raw
0x0C    UTF8String    ``str``            UTF-8
0x09    REAL          ``float``          ``repr`` text (ISO 6093, base 10)
0x30    SEQUENCE      ``list``           the items' encodings
0xA0    map           ``dict``           key, value, ... by sorted ``str`` key
======  ============  =================  ==================================

Lengths are DER definite lengths: one byte below 128, else ``0x80 | n``
and ``n`` big-endian length bytes.  Map keys are sorted, so equal values
encode to equal bytes.  A tuple (or ``bytearray`` / ``memoryview``)
encodes as a sequence (as octets) and comes back as a list (as
``bytes``); a non-``str`` map key or any other type is a ``TypeError``
at encode time, the program's fault rather than the bytes'.

The decoder reads through a :class:`~repro.bytereader.ByteReader` that
raises the caller's error class, so any input :func:`encode` would not
have written — nesting past :data:`~repro.bytereader.MAX_DEPTH` included
— is that error and nothing else.  Stdlib only, so every layer can
import it.
"""

from __future__ import annotations

import typing

from repro.bytereader import ByteReader

__all__ = ["Value", "decode", "encode", "read", "write"]

_BOOL = 0x01
_INT = 0x02
_OCTETS = 0x04
_NULL = 0x05
_REAL = 0x09
_UTF8 = 0x0C
_SEQ = 0x30
# Context-specific, constructed: the private tag for maps.
_MAP = 0xA0

#: The head of each short-form length, per tag that has a variable one.
_SHORT_HEADS = {
    tag: [bytes((tag, n)) for n in range(0x80)]
    for tag in (_INT, _OCTETS, _REAL, _UTF8, _SEQ, _MAP)
}
_NONE_TLV = bytes((_NULL, 0))
_TRUE_TLV = bytes((_BOOL, 1, 0xFF))
_FALSE_TLV = bytes((_BOOL, 1, 0x00))

Value = typing.Union[
    None, bool, int, float, str, bytes, list[typing.Any], dict[str, typing.Any]
]


def _head(tag: int, length: int) -> bytes:
    """The tag and DER definite length of ``length`` content bytes."""
    if length < 0x80:
        return _SHORT_HEADS[tag][length]
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(body))) + body


def write(out: list[bytes], value: object) -> int:
    """Append the encoding of ``value`` to ``out``; its length in bytes.

    A container appends a placeholder for its header, then its items,
    and fills the header in once their length is known: the caller joins
    ``out`` once, however deep the value.
    """
    if isinstance(value, str):
        tag, content = _UTF8, value.encode("utf-8")
    elif isinstance(value, (list, tuple)):
        at = len(out)
        out.append(b"")
        length = 0
        for item in value:
            length += write(out, item)
        out[at] = head = _head(_SEQ, length)
        return len(head) + length
    elif isinstance(value, dict):
        at = len(out)
        out.append(b"")
        length = 0
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"map keys must be str, got {key!r}")
            length += write(out, key) + write(out, value[key])
        out[at] = head = _head(_MAP, length)
        return len(head) + length
    elif value is None:
        out.append(_NONE_TLV)
        return 2
    elif isinstance(value, bool):
        out.append(_TRUE_TLV if value else _FALSE_TLV)
        return 3
    elif isinstance(value, int):
        # One spare bit for the sign: 0 is one byte, 128 two.
        tag = _INT
        content = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    elif isinstance(value, float):
        tag, content = _REAL, repr(value).encode("ascii")
    elif isinstance(value, (bytes, bytearray, memoryview)):
        # A file body can be megabytes: its one copy is the final join.
        content = bytes(value)
        head = _head(_OCTETS, len(content))
        out.append(head)
        out.append(content)
        return len(head) + len(content)
    else:
        raise TypeError(f"cannot encode a {type(value).__name__} as a value")
    head = _head(tag, len(content))
    out.append(head + content)
    return len(head) + len(content)


def encode(value: object) -> bytes:
    """The canonical bytes of ``value``."""
    out: list[bytes] = []
    write(out, value)
    return b"".join(out)


def read(r: ByteReader[typing.Any]) -> Value:
    """Read one value at ``r``'s cursor; anything else is ``r.error``."""
    tag, length = r.take(2)
    if length & 0x80:  # long form: the low bits count the length bytes
        if length == 0x80:
            raise r.error("indefinite ASN.1 length")
        length = int.from_bytes(r.take(length & 0x7F), "big")
    if tag == _UTF8:
        return r.text(length)
    if tag == _SEQ:
        items: list[Value] = []
        with r.nest(length):
            while r.pos < r.stop:
                items.append(read(r))
        return items
    if tag == _MAP:
        result: dict[str, Value] = {}
        with r.nest(length):
            while r.pos < r.stop:
                key = read(r)
                if not isinstance(key, str):
                    raise r.error(f"map key must decode to str, got {key!r}")
                if r.pos == r.stop:
                    raise r.error("map with dangling key")
                result[key] = read(r)
        return result
    if tag == _NULL and not length:
        return None
    if tag == _OCTETS:
        return bytes(r.take(length))
    if tag == _REAL:
        text = r.text(length, "ascii")
        try:
            return float(text)
        except ValueError as err:
            raise r.error(f"malformed REAL: {err}") from None
    body = r.take(length)
    if tag == _INT and body:
        return int.from_bytes(body, "big", signed=True)
    if tag == _BOOL and body in (b"\x00", b"\xff"):
        return body == b"\xff"
    raise r.error(f"no value is tag {tag:#04x} with {length} content bytes")


def decode(data: bytes, error: typing.Callable[[str], Exception]) -> Value:
    """The one value ``data`` encodes; any other input raises ``error``."""
    r = ByteReader(data, error)
    value = read(r)
    r.end()
    return value
