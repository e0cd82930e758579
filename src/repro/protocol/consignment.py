"""The consignment payload: an AJO plus its workstation files.

Section 5.6: "Files from the user's workstation needed in a job are put
into the AJO.  They are transferred together with the job to a UNICORE
server on the https connection."  The consignment envelope carries the
encoded AJO and those files in one payload.

Since the control/data-plane split the envelope is binary (version 2):
the AJO bytes and small files ride inline *raw* — no base64, killing
the ~33% inflation of the old JSON envelope — while large files travel
ahead of the request on the streaming data plane
(:mod:`repro.protocol.datapath`) and appear here only as slim
:class:`FileEntry` manifests (path, size, checksum, stream id).

Envelope layout (network byte order)::

    "UCON" | ver u8 | flags u8 | ajo_len u32 | ajo bytes | count u32 |
    entry*
    entry: mode u8 | path_len u16 | path utf-8 |
           mode 0 (inline):   content_len u32 | content bytes
           mode 1 (streamed): size u64 | crc32 u32 | stream_id u64

The decoder reads through a :class:`~repro.bytereader.ByteReader`, so
any malformation is a :class:`SerializationError`, and it validates the
file manifest before anything can reach a Uspace: duplicate paths,
``..`` traversal segments, empty paths, and control characters are
refused with :class:`UnsafePathError` (a
:class:`SerializationError` with the stable code ``ajo.unsafe_path``).
Consignment file keys are *workstation-namespace* paths — they name
where the file came from on the user's machine, and legitimately start
with ``/`` — so absolute paths are additionally refused only for
manifests whose paths will be *written into* a Uspace (transfers,
forwarded staging); see :func:`validate_manifest_paths`.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import dataclass

from repro.ajo.errors import SerializationError, UnsafePathError
from repro.bytereader import ByteReader

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "Consignment",
    "FileEntry",
    "decode_consignment_envelope",
    "encode_consignment",
    "validate_manifest_paths",
]

_MAGIC = b"UCON"
_VERSION = 2

_HEAD = struct.Struct("!4sBBI")        # magic, version, flags, ajo_len
_U32 = struct.Struct("!I")             # entry count, inline content_len
_ENTRY_HEAD = struct.Struct("!BH")     # mode, path_len
_STREAM_REF = struct.Struct("!QIQ")    # size, crc32, stream_id

_MODE_INLINE = 0
_MODE_STREAMED = 1


@dataclass(slots=True, frozen=True)
class FileEntry:
    """Manifest entry for one file travelling on the data plane."""

    path: str
    size: int
    crc32: int
    stream_id: int


@dataclass(slots=True, frozen=True)
class Consignment:
    """A decoded envelope: the AJO plus inline and streamed files."""

    ajo_bytes: bytes
    files: dict[str, bytes]
    streamed: tuple[FileEntry, ...] = ()


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
    files: dict[str, bytes] | None = None,
    metrics: MetricsRegistry | None = None,
    streamed: typing.Sequence[FileEntry] = (),
) -> bytes:
    """Bundle an encoded AJO with workstation file contents.

    ``files`` ride inline, raw; ``streamed`` entries reference payloads
    already sent over the data plane.  With a
    :class:`~repro.observability.MetricsRegistry` as ``metrics``,
    records the bundled file count and total payload size.
    """
    inline = dict(sorted((files or {}).items()))
    entries = sorted(streamed, key=lambda e: e.path)
    validate_manifest_paths(
        list(inline) + [e.path for e in entries], what="consignment"
    )
    parts = [_HEAD.pack(_MAGIC, _VERSION, 0, len(ajo_bytes)), ajo_bytes,
             _U32.pack(len(inline) + len(entries))]
    for path, content in inline.items():
        encoded_path = path.encode("utf-8")
        parts.append(_ENTRY_HEAD.pack(_MODE_INLINE, len(encoded_path)))
        parts.append(encoded_path)
        parts.append(_U32.pack(len(content)))
        parts.append(content)
    for entry in entries:
        encoded_path = entry.path.encode("utf-8")
        parts.append(_ENTRY_HEAD.pack(_MODE_STREAMED, len(encoded_path)))
        parts.append(encoded_path)
        parts.append(_STREAM_REF.pack(entry.size, entry.crc32, entry.stream_id))
    payload = b"".join(parts)
    if metrics is not None:
        metrics.counter("consignment.files").inc(len(inline) + len(entries))
        metrics.counter("consignment.bytes").inc(len(payload))
    return payload


def _malformed(message: str) -> SerializationError:
    return SerializationError(f"malformed consignment: {message}")


def decode_consignment_envelope(data: bytes) -> Consignment:
    """Parse the binary envelope; validates the file manifest."""
    r = ByteReader(bytes(data), _malformed)
    magic, version, _flags, ajo_len = r.unpack(_HEAD)
    if magic != _MAGIC:
        raise r.error(f"bad consignment magic {magic!r}")
    if version != _VERSION:
        raise r.error(f"unsupported consignment version {version}")
    ajo_bytes = r.take(ajo_len)
    files: dict[str, bytes] = {}
    streamed: list[FileEntry] = []
    for _ in range(r.unpack(_U32)[0]):
        mode, path_len = r.unpack(_ENTRY_HEAD)
        path = r.text(path_len)
        if mode == _MODE_INLINE:
            files[path] = r.take(r.unpack(_U32)[0])
        elif mode == _MODE_STREAMED:
            streamed.append(FileEntry(path, *r.unpack(_STREAM_REF)))
        else:
            raise r.error(f"unknown file entry mode {mode} for {path!r}")
    r.end()
    validate_manifest_paths(
        list(files) + [e.path for e in streamed], what="consignment"
    )
    return Consignment(
        ajo_bytes=ajo_bytes, files=files, streamed=tuple(streamed)
    )
