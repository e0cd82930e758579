"""The consignment payload: an AJO plus its workstation files.

Section 5.6: "Files from the user's workstation needed in a job are put
into the AJO.  They are transferred together with the job to a UNICORE
server on the https connection."  The consignment carries the encoded
AJO and the manifest of those files (:mod:`repro.protocol.datapath`)
as one :mod:`repro.asn1` value::

    [ajo bytes, {path: bytes | [size, crc32, stream_id]}]

Small files ride inline, raw; large ones travel ahead of the request on
the streaming data plane and appear only as their stream's entry.

The decoder reads through :func:`repro.asn1.decode`, so any malformation
is a :class:`SerializationError` ("malformed consignment: …"), and it
validates the manifest before anything can reach a Uspace: ``..``
traversal segments, empty paths, and control characters are refused
with :class:`UnsafePathError` (a :class:`SerializationError` with the
stable code ``ajo.unsafe_path``).  Consignment file keys are
*workstation-namespace* paths — they name where the file came from on
the user's machine, and legitimately start with ``/`` — so absolute
paths are additionally refused only for manifests whose paths will be
*written into* a Uspace (transfers, forwarded staging); see
:func:`validate_manifest_paths`.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro import asn1
from repro.ajo.errors import SerializationError, UnsafePathError
from repro.protocol.datapath import Manifest, item_of, item_value

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "Consignment",
    "decode_consignment_envelope",
    "encode_consignment",
    "validate_manifest_paths",
]


@dataclass(slots=True, frozen=True)
class Consignment:
    """A decoded consignment: the AJO plus the manifest of its files."""

    ajo_bytes: bytes
    files: Manifest


def validate_manifest_paths(
    paths: typing.Iterable[str],
    *,
    uspace_destination: bool = False,
    what: str = "file manifest",
) -> None:
    """Refuse unsafe paths before anything is written anywhere.

    ``uspace_destination=True`` applies the strict policy for paths a
    Uspace will be asked to write (no absolute paths); without it the
    paths are workstation-namespace source names, where a leading ``/``
    is the norm.  Raises :class:`UnsafePathError` (code
    ``ajo.unsafe_path``) on the first offending entry.
    """
    seen: set[str] = set()
    for path in paths:
        if not path:
            raise UnsafePathError(f"{what}: empty path")
        if any(ord(ch) < 0x20 or ch == "\x7f" for ch in path):
            raise UnsafePathError(
                f"{what}: path {path!r} contains control characters"
            )
        if any(segment == ".." for segment in path.split("/")):
            raise UnsafePathError(
                f"{what}: path {path!r} contains a '..' traversal segment"
            )
        if uspace_destination and path.startswith("/"):
            raise UnsafePathError(
                f"{what}: absolute path {path!r} refused for a Uspace "
                "destination"
            )
        if path in seen:
            raise UnsafePathError(f"{what}: duplicate entry {path!r}")
        seen.add(path)


def encode_consignment(
    ajo_bytes: bytes,
    files: Manifest | None = None,
    metrics: MetricsRegistry | None = None,
) -> bytes:
    """Bundle an encoded AJO with the manifest of its workstation files.

    With a :class:`~repro.observability.MetricsRegistry` as ``metrics``,
    records the bundled file count and total payload size.
    """
    files = files or {}
    validate_manifest_paths(files, what="consignment")
    payload = asn1.encode(
        [ajo_bytes, {path: item_value(item) for path, item in files.items()}]
    )
    if metrics is not None:
        metrics.counter("consignment.files").inc(len(files))
        metrics.counter("consignment.bytes").inc(len(payload))
    return payload


def _malformed(message: str) -> SerializationError:
    return SerializationError(f"malformed consignment: {message}")


def decode_consignment_envelope(data: bytes) -> Consignment:
    """Open a consignment; validates the file manifest."""
    value = asn1.decode(bytes(data), _malformed)
    if not (
        type(value) is list and len(value) == 2
        and type(value[0]) is bytes and type(value[1]) is dict
    ):
        raise _malformed(f"not [ajo, files]: {value!r:.80}")
    files = {path: item_of(item, _malformed) for path, item in value[1].items()}
    validate_manifest_paths(files, what="consignment")
    return Consignment(ajo_bytes=value[0], files=files)
