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

A process holds each file's bytes once, however the file reached it.
This module keeps the one weak registry of live bodies, keyed by size
and the :data:`KEY_EDGE` bytes at each end of the content: a sender
offers the body it sends (:func:`hold`), and a receiver — an inline
manifest item, a reassembled stream, a blob read — wraps the bytes of
the held body under its key when they equal what it was handed
(:func:`adopt`, :meth:`FileBody.received`).  The key is free to take and
the byte compare is the proof — or, for a streamed chunk that is the
held body's own view at its seq, identity — so no checksum pass is added
for it: a key shared by other bytes is not adopted, and costs memory,
never content.  The bytes may be shared; the checks are each body's own.
"""

from __future__ import annotations

import hashlib
import typing
import weakref
import zlib

from repro.vfs.errors import VFSError

__all__ = [
    "KEY_EDGE", "FileBody", "HeldKey", "adopt", "held", "held_body", "held_key",
    "hold",
]

#: Bytes at each end of the content that key a held body, beside its size.
KEY_EDGE = 16

#: ``(size, first KEY_EDGE bytes, last KEY_EDGE bytes)`` of some content.
HeldKey = tuple[int, bytes, bytes]


class FileBody:
    """Immutable content plus a memo of its digest and, for one split,
    its chunk CRCs and chunk views, each computed on first request and
    kept.  Compares and measures like the ``bytes`` it wraps: the memo is
    derived, not part of the value.  The views are what a stream of the
    body carries, so a receiver in this process knows a chunk for this
    body's bytes at its offset by identity (:meth:`own_chunks`).

    ``digest`` seeds the sha256 hex digest (the key ``data`` was read
    under); ``chunk_crcs`` the CRC-32 of every ``chunk_bytes``-sized
    piece, the last one shorter (the frames it arrived in).
    """

    __slots__ = (
        "_data", "_digest", "_chunk_bytes", "_chunk_crcs", "_chunks",
        "__weakref__",
    )

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
        #: The pieces of that split as views, once they are cut.
        self._chunks: tuple[memoryview, ...] = ()
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

    @classmethod
    def received(
        cls,
        data: bytes,
        *,
        digest: str | None = None,
        chunk_bytes: int = 0,
        chunk_crcs: typing.Sequence[int] = (),
    ) -> "FileBody":
        """A fresh body, with the checks given, for bytes this process was
        handed: around the held bytes equal to ``data`` (:func:`adopt`),
        else around ``data``, held from now on if no live body holds its
        key."""
        body = cls(
            adopt(data), digest=digest, chunk_bytes=chunk_bytes,
            chunk_crcs=chunk_crcs,
        )
        _HELD.setdefault(held_key(data), body)
        return body

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
            self._chunks = self._cut(chunk_bytes)
            self._chunk_crcs = tuple(zlib.crc32(chunk) for chunk in self._chunks)
            self._chunk_bytes = chunk_bytes
        return self._chunk_crcs

    def chunks(self, chunk_bytes: int) -> tuple[memoryview, ...]:
        """Each ``chunk_bytes``-sized piece as a view, in payload order:
        cut once per split and kept beside :meth:`chunk_crcs` of it, so
        every call at the held split returns the same view objects."""
        crcs = self.chunk_crcs(chunk_bytes)  # one memo, one split
        if len(self._chunks) != len(crcs):  # seeded CRCs: cut the views now
            self._chunks = self._cut(chunk_bytes)
        return self._chunks

    def _cut(self, chunk_bytes: int) -> tuple[memoryview, ...]:
        view = memoryview(self._data)
        return tuple(view[i:i + chunk_bytes] for i in range(0, len(view), chunk_bytes))

    def own_chunks(self, chunk_bytes: int) -> tuple[memoryview, ...]:
        """The views this body holds for ``chunk_bytes`` (the ones
        :meth:`chunks` hands out), or () when it holds none for that
        split: what a receiver proves a chunk is this body's by, cutting
        and reading nothing."""
        return self._chunks if chunk_bytes == self._chunk_bytes else ()

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FileBody):
            other = other._data
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self._data == other
        return NotImplemented


#: Every live body a receiver may adopt the bytes of, by :func:`held_key`.
#: Weak: it keeps nothing alive.
_HELD: weakref.WeakValueDictionary[HeldKey, FileBody] = (
    weakref.WeakValueDictionary()
)


def held_key(data: bytes) -> HeldKey:
    """The registry key of ``data``: its size and its two edges."""
    return len(data), data[:KEY_EDGE], data[-KEY_EDGE:]


def held_body(key: HeldKey) -> FileBody | None:
    """The live body held under ``key``, if any; its bytes are some
    content of that key only if a compare says so."""
    return _HELD.get(key)


def held(key: HeldKey) -> bytes | None:
    """The bytes of the live body held under ``key``, if any; they are
    ``data`` only if a byte compare says so."""
    body = held_body(key)
    return None if body is None else body.data


def hold(body: FileBody) -> None:
    """Offer ``body``'s bytes to the receivers that follow: a sender's
    call, so it displaces any other body its key held."""
    _HELD[held_key(body.data)] = body


def adopt(data: bytes) -> bytes:
    """The bytes of the live body held under ``data``'s key when they
    equal ``data`` (a memcmp), else ``data`` itself."""
    kept = held(held_key(data))
    return kept if kept is not None and kept == data else data
