"""Property-based tests for the one value codec, ``repro.asn1``."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import asn1
from repro.bytereader import MAX_DEPTH
from repro.errors import StorageError

# Finite floats whose repr round-trips exactly (excludes NaN; inf is fine
# via repr but float('inf') -> 'inf' parses back, so allow it).
finite_floats = st.floats(allow_nan=False)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    finite_floats,
    st.text(max_size=50),
    st.binary(max_size=50),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


def _equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _equal(x, y) for x, y in zip(a, b, strict=True)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_equal(a[k], b[k]) for k in a)
    return a == b and type(a) is type(b)


def _decode(data: bytes):
    return asn1.decode(data, StorageError)


@given(values)
@settings(max_examples=300)
def test_roundtrip(value):
    assert _equal(_decode(asn1.encode(value)), value)


@given(values)
def test_encoding_is_deterministic(value):
    assert asn1.encode(value) == asn1.encode(value)


@given(st.integers(min_value=-(2**256), max_value=2**256))
def test_integer_roundtrip_wide(n):
    assert _decode(asn1.encode(n)) == n


@given(st.text())
def test_string_roundtrip_unicode(s):
    assert _decode(asn1.encode(s)) == s


@given(st.binary(max_size=64))
def test_decoder_never_crashes_unhandled(data):
    """Arbitrary bytes either decode or raise the caller's error — nothing else."""
    try:
        _decode(data)
    except StorageError:
        pass


def _nested(tag: int, depth: int) -> bytes:
    """``depth`` containers of ``tag``, built without recursion: a map
    holds its child under the key "k", a sequence holds it alone."""
    data = asn1.encode(None)
    for _ in range(depth):
        if tag == 0xA0:
            data = asn1.encode("k") + data
        data = asn1._head(tag, len(data)) + data
    return data


@pytest.mark.parametrize("tag", [0x30, 0xA0], ids=["sequence", "map"])
def test_nesting_past_the_reader_bound_is_refused_not_a_recursion_error(tag):
    # What the encoder writes for [[[None]]] / {"k": {"k": {"k": None}}}.
    shallow = [[[None]]] if tag == 0x30 else {"k": {"k": {"k": None}}}
    assert _nested(tag, 3) == asn1.encode(shallow)
    for depth in (MAX_DEPTH + 1, 2_000):
        with pytest.raises(StorageError, match="nested deeper than"):
            _decode(_nested(tag, depth))


def test_a_value_nested_to_the_bound_round_trips():
    value = None
    for level in range(MAX_DEPTH):
        value = [value] if level % 2 else {"k": value}
    assert _decode(asn1.encode(value)) == value


def test_a_tuple_encodes_as_a_sequence_and_decodes_as_a_list():
    assert asn1.encode((1, b"x")) == asn1.encode([1, b"x"])
    assert _decode(asn1.encode({"t": (None, (2.5,))})) == {"t": [None, [2.5]]}


@pytest.mark.parametrize("value", [{1: "x"}, {"a": {None: 1}}, [{("k",): 0}]])
def test_a_map_key_that_is_not_str_is_a_type_error(value):
    with pytest.raises(TypeError, match="map keys must be str"):
        asn1.encode(value)


def test_a_type_outside_the_domain_is_a_type_error():
    with pytest.raises(TypeError, match="cannot encode a set"):
        asn1.encode({"s": {1}})


def test_a_long_form_length_round_trips():
    body = bytes(range(256)) * 300
    data = asn1.encode(body)
    assert data[:5] == b"\x04\x83\x01\x2c\x00"  # OCTET STRING, 3 length bytes
    assert _decode(data) == body


def test_an_indefinite_length_is_refused():
    with pytest.raises(StorageError, match="indefinite"):
        _decode(b"\x30\x80\x05\x00\x00\x00")
