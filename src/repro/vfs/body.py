"""File content as one value: the bytes and the checks taken over them.

A site reads what it accepts once.  The CRC-32 of each chunk is taken
when the chunk arrives (:func:`repro.net.stream.decode_frame`) or the
first time the content is framed for sending, the sha256 digest the
first time it is persisted; a :class:`FileBody` keeps both beside the
bytes, so sending the file on or persisting it again reads nothing twice.

Only the process holding a body may seed it, from what it verified
itself (the chunk CRCs of a stream it reassembled) or from its own blob
key.  Content the holder made itself needs no seed: a batch system keeps
the one body it writes per product size, so every product of that size
at that site shares one memo.  Nothing here rides a message: envelopes,
peer messages and frames carry ``bytes`` and the receiving site builds
its own body, so every site still reads each byte it accepts.  Serving
the CRCs taken at receipt is also the stronger check (HDFS stores block
checksums beside the data and serves those, for the same reason): one
recomputed at send time blesses whatever the copy has become, the held
one lets the next receiver catch it.
"""

from __future__ import annotations

import hashlib
import typing
import zlib

from repro.vfs.errors import VFSError

__all__ = ["FileBody"]


class FileBody:
    """Immutable content plus a memo of its digest and chunk CRCs, each
    computed on first request and kept.  Compares and measures like the
    ``bytes`` it wraps: the memo is derived, not part of the value.

    ``digest`` seeds the sha256 hex digest (the key ``data`` was read
    under); ``chunk_crcs`` the CRC-32 of every ``chunk_bytes``-sized
    piece, the last one shorter (the frames it arrived in).
    """

    __slots__ = ("_data", "_digest", "_chunk_bytes", "_chunk_crcs")

    def __init__(
        self,
        data: bytes | bytearray | memoryview,
        *,
        digest: str | None = None,
        chunk_bytes: int = 0,
        chunk_crcs: typing.Sequence[int] = (),
    ) -> None:
        self._data = bytes(data)  # bytes by reference, a buffer snapshotted
        self._digest = digest
        #: The split ``_chunk_crcs`` were cut at; 0 while none are held.
        self._chunk_bytes = max(chunk_bytes, 0)
        self._chunk_crcs = tuple(chunk_crcs)
        if len(self._chunk_crcs) != (
            self._chunk_bytes and -(-len(self._data) // self._chunk_bytes)
        ):
            raise VFSError(
                f"{len(self._chunk_crcs)} chunk CRCs do not cover "
                f"{len(self._data)} bytes cut at {chunk_bytes}"
            )

    @classmethod
    def of(cls, content: "FileBody | bytes | bytearray") -> "FileBody":
        """``content`` itself when it is a body (memo intact), else a
        fresh body around the bare bytes."""
        return content if isinstance(content, FileBody) else cls(content)

    @property
    def data(self) -> bytes:
        return self._data

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self._data).hexdigest()
        return self._digest

    def chunk_crcs(self, chunk_bytes: int) -> tuple[int, ...]:
        """CRC-32 of each ``chunk_bytes``-sized piece, in payload order:
        the held ones when they were cut at that size."""
        if chunk_bytes <= 0:
            raise VFSError(f"chunk size must be positive, got {chunk_bytes}")
        if chunk_bytes != self._chunk_bytes:
            view = memoryview(self._data)
            self._chunk_crcs = tuple(
                zlib.crc32(view[i:i + chunk_bytes])
                for i in range(0, len(view), chunk_bytes)
            )
            self._chunk_bytes = chunk_bytes
        return self._chunk_crcs

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FileBody):
            other = other._data
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self._data == other
        return NotImplemented
