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

Every decoder validates the file manifest before anything can reach a
Uspace: duplicate paths, ``..`` traversal segments, empty paths, and
control characters are refused with :class:`UnsafePathError` (a
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

__all__ = [
    "Consignment",
    "FileEntry",
    "decode_consignment",
    "decode_consignment_envelope",
    "encode_consignment",
    "validate_manifest_paths",
]

_MAGIC = b"UCON"
_VERSION = 2

_HEAD = struct.Struct("!4sBBI")        # magic, version, flags, ajo_len
_COUNT = struct.Struct("!I")
_ENTRY_HEAD = struct.Struct("!BH")     # mode, path_len
_INLINE_LEN = struct.Struct("!I")
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
    metrics=None,
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
             _COUNT.pack(len(inline) + len(entries))]
    for path, content in inline.items():
        encoded_path = path.encode("utf-8")
        parts.append(_ENTRY_HEAD.pack(_MODE_INLINE, len(encoded_path)))
        parts.append(encoded_path)
        parts.append(_INLINE_LEN.pack(len(content)))
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


def decode_consignment_envelope(data: bytes) -> Consignment:
    """Parse the binary envelope; validates the file manifest."""
    try:
        view = memoryview(bytes(data))
        if len(view) < _HEAD.size:
            raise ValueError("truncated header")
        magic, version, _flags, ajo_len = _HEAD.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad consignment magic {bytes(magic)!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported consignment version {version}")
        offset = _HEAD.size
        if offset + ajo_len + _COUNT.size > len(view):
            raise ValueError("truncated AJO section")
        ajo_bytes = bytes(view[offset:offset + ajo_len])
        offset += ajo_len
        (count,) = _COUNT.unpack_from(view, offset)
        offset += _COUNT.size
        files: dict[str, bytes] = {}
        streamed: list[FileEntry] = []
        for _ in range(count):
            if offset + _ENTRY_HEAD.size > len(view):
                raise ValueError("truncated file entry")
            mode, path_len = _ENTRY_HEAD.unpack_from(view, offset)
            offset += _ENTRY_HEAD.size
            if offset + path_len > len(view):
                raise ValueError("truncated file path")
            path = bytes(view[offset:offset + path_len]).decode("utf-8")
            offset += path_len
            if mode == _MODE_INLINE:
                if offset + _INLINE_LEN.size > len(view):
                    raise ValueError(f"truncated length for {path!r}")
                (content_len,) = _INLINE_LEN.unpack_from(view, offset)
                offset += _INLINE_LEN.size
                if offset + content_len > len(view):
                    raise ValueError(f"truncated content for {path!r}")
                files[path] = bytes(view[offset:offset + content_len])
                offset += content_len
            elif mode == _MODE_STREAMED:
                if offset + _STREAM_REF.size > len(view):
                    raise ValueError(f"truncated stream reference for {path!r}")
                size, crc, stream_id = _STREAM_REF.unpack_from(view, offset)
                offset += _STREAM_REF.size
                streamed.append(
                    FileEntry(path=path, size=size, crc32=crc,
                              stream_id=stream_id)
                )
            else:
                raise ValueError(f"unknown file entry mode {mode}")
        if offset != len(view):
            raise ValueError(f"{len(view) - offset} trailing bytes")
    except UnicodeDecodeError as err:
        raise SerializationError(f"malformed consignment: {err}") from err
    except (ValueError, struct.error) as err:
        raise SerializationError(f"malformed consignment: {err}") from err
    validate_manifest_paths(
        list(files) + [e.path for e in streamed], what="consignment"
    )
    return Consignment(
        ajo_bytes=ajo_bytes, files=files, streamed=tuple(streamed)
    )


def decode_consignment(data: bytes) -> tuple[bytes, dict[str, bytes]]:
    """Unbundle a fully-inline envelope; returns ``(ajo_bytes, files)``.

    Envelopes with streamed entries need the data-plane endpoint that
    holds their payloads — callers with one use
    :func:`decode_consignment_envelope` instead.
    """
    consignment = decode_consignment_envelope(data)
    if consignment.streamed:
        raise SerializationError(
            "consignment references streamed files; decoding requires a "
            "data-plane endpoint"
        )
    return consignment.ajo_bytes, consignment.files
