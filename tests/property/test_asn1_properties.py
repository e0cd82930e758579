"""Property-based tests for the ASN.1 codec."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytereader import MAX_DEPTH
from repro.resources import asn1
from repro.resources.errors import ResourcePageError

# Finite floats whose repr round-trips exactly (excludes NaN; inf is fine
# via repr but float('inf') -> 'inf' parses back, so allow it).
finite_floats = st.floats(allow_nan=False)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    finite_floats,
    st.text(max_size=50),
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


@given(values)
@settings(max_examples=300)
def test_roundtrip(value):
    assert _equal(asn1.decode(asn1.encode(value)), value)


@given(values)
def test_encoding_is_deterministic(value):
    assert asn1.encode(value) == asn1.encode(value)


@given(st.integers(min_value=-(2**256), max_value=2**256))
def test_integer_roundtrip_wide(n):
    assert asn1.decode(asn1.encode(n)) == n


@given(st.text())
def test_string_roundtrip_unicode(s):
    assert asn1.decode(asn1.encode(s)) == s


@given(st.binary(max_size=64))
def test_decoder_never_crashes_unhandled(data):
    """Arbitrary bytes either decode or raise ResourcePageError — nothing else."""
    try:
        asn1.decode(data)
    except ResourcePageError:
        pass


def _nested(tag: int, depth: int) -> bytes:
    """``depth`` containers of ``tag``, built without recursion: a map
    holds its child under the key "k", a sequence holds it alone."""
    data = asn1.encode(None)
    for _ in range(depth):
        if tag == 0xA0:
            data = asn1.encode("k") + data
        data = bytes([tag]) + asn1._encode_length(len(data)) + data
    return data


@pytest.mark.parametrize("tag", [0x30, 0xA0], ids=["sequence", "map"])
def test_nesting_past_the_reader_bound_is_refused_not_a_recursion_error(tag):
    # What the encoder writes for [[[None]]] / {"k": {"k": {"k": None}}}.
    shallow = [[[None]]] if tag == 0x30 else {"k": {"k": {"k": None}}}
    assert _nested(tag, 3) == asn1.encode(shallow)
    for depth in (MAX_DEPTH + 1, 2_000):
        with pytest.raises(ResourcePageError, match="nested deeper than"):
            asn1.decode(_nested(tag, depth))


def test_a_value_nested_to_the_bound_round_trips():
    value = None
    for level in range(MAX_DEPTH):
        value = [value] if level % 2 else {"k": value}
    assert asn1.decode(asn1.encode(value)) == value
