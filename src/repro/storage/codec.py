"""The storage value codec: one canonical byte encoding for every backend.

Backends must agree *exactly* on what survives a round trip, or flipping
``REPRO_STORAGE`` would change simulation behavior.  So both backends
funnel every stored value through this module: Python values are first
normalized to a JSON-safe "plain" form (``bytes`` become a tagged
base64 dict, tuples become lists, dict keys become strings) and then
serialized as canonical JSON bytes.  The in-memory backend pays the
same round trip as SQLite on purpose — parity over speed.

That bargain covers *metadata*: records, mappings, resource pages, and
the small AJO / outcome byte strings inside them.  File bodies never
come through here; records name them by digest and the bodies live raw
in the backend's blob store (:class:`repro.storage.backend.BlobStore`).

The existing :mod:`repro.resources.asn1` codec is *not* reused here: it
deliberately has no ``bytes`` type (resource pages are numbers and
names), while journal records are mostly AJO byte strings.
"""

from __future__ import annotations

import base64
import json
import typing

from repro.storage.errors import StorageError

__all__ = ["to_plain", "from_plain", "encode_value", "decode_value"]

#: Tag key marking a base64-encoded byte string in plain form.  The
#: leading NUL keeps it out of the space of ordinary dict keys.
_BYTES_TAG = "\x00b64"


def to_plain(value: object) -> object:
    """Normalize ``value`` into JSON-safe plain data (pure, recursive)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_plain(item) for key, item in value.items()}
    raise TypeError(
        f"storage values must be plain data (None/bool/int/float/str/"
        f"bytes/list/tuple/dict); got {type(value).__name__}"
    )


def from_plain(value: object) -> object:
    """Invert :func:`to_plain` (lists stay lists; tuples do not return)."""
    if isinstance(value, list):
        return [from_plain(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {_BYTES_TAG}:
            return base64.b64decode(typing.cast(str, value[_BYTES_TAG]))
        return {key: from_plain(item) for key, item in value.items()}
    return value


def encode_value(value: object) -> bytes:
    """Canonical byte encoding of a value (sorted keys, no whitespace)."""
    return json.dumps(
        to_plain(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_value(data: bytes) -> object:
    """Invert :func:`encode_value`; anything else is a StorageError."""
    try:
        return from_plain(json.loads(data.decode("utf-8")))
    except (ValueError, TypeError, RecursionError) as err:
        # bad UTF-8, JSON or base64; a non-string where base64 goes;
        # nesting past the stack
        raise StorageError(f"not a stored value: {err}") from err
