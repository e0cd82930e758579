"""One bounded cursor under every binary decoder.

The decoders of bytes from outside — the socket MSG body, the
data-plane frame header and OPEN preamble, and the :mod:`repro.asn1`
values (resource pages, storage rows, snapshots, replies, the
consignment and the bulk reply) — read only through a
:class:`ByteReader`, so their contract holds by construction: a decoder
returns a value or raises its codec's error (the ``error`` it hands the
reader: ``FrameDecodeError``, ``FrameError``, ``SerializationError``,
``ResourcePageError``, ``StorageError``, ``SnapshotError``); a length is checked
against what is left before anything is sliced, so no input allocates
more than its own size; and nesting is refused past :data:`MAX_DEPTH`,
long before a decoder's recursion could reach the interpreter's limit.
Stdlib only, so every layer can import it without a cycle.
"""

from __future__ import annotations

import struct
import typing

__all__ = ["MAX_DEPTH", "ByteReader"]

#: The deepest nesting any binary decoder accepts.  What this repo
#: encodes is a few levels deep; a hundred keeps a decoder's recursion
#: well inside the interpreter's default limit of a thousand frames.
MAX_DEPTH = 100

B = typing.TypeVar("B", bytes, memoryview)


class ByteReader(typing.Generic[B]):
    """A cursor over ``buf`` (reads are slices of it, so a view hands out
    views); every refusal is ``error(message)``."""

    __slots__ = ("buf", "pos", "stop", "error", "_outer")

    def __init__(self, buf: B, error: typing.Callable[[str], Exception]) -> None:
        self.buf = buf
        self.pos = 0
        #: The end of the innermost :meth:`nest` window, or of ``buf``.
        self.stop = len(buf)
        self.error = error
        self._outer: list[int] = []

    @property
    def remaining(self) -> int:
        return self.stop - self.pos

    def _check(self, n: int) -> int:
        """Where ``n`` more bytes end, refused unless that many are left."""
        end = self.pos + n
        if n < 0 or end > self.stop:
            raise self.error(f"truncated: {n} bytes wanted, {self.remaining} left")
        return end

    def take(self, n: int) -> B:
        # ``_check`` inlined: this is the hot path of every decoder.
        start = self.pos
        end = start + n
        if n < 0 or end > self.stop:
            raise self.error(f"truncated: {n} bytes wanted, {self.remaining} left")
        self.pos = end
        return self.buf[start:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def unpack(self, fmt: struct.Struct) -> tuple[typing.Any, ...]:
        return fmt.unpack(self.take(fmt.size))

    def text(self, n: int, encoding: str = "utf-8") -> str:
        try:
            return str(self.take(n), encoding)
        except UnicodeDecodeError as exc:
            raise self.error(f"invalid {encoding} text: {exc}") from None

    def end(self) -> None:
        """Refuse whatever is left unread."""
        if self.pos != self.stop:
            raise self.error(f"{self.remaining} trailing bytes")

    def nest(self, length: int | None = None) -> ByteReader[B]:
        """One level deeper, for ``with reader.nest(): ...``, refused past
        :data:`MAX_DEPTH`.  With ``length``, the block reads exactly the
        next ``length`` bytes: no read crosses them."""
        if len(self._outer) >= MAX_DEPTH:
            raise self.error(f"nested deeper than {MAX_DEPTH} levels")
        stop = self.stop if length is None else self._check(length)
        self._outer.append(self.stop)
        self.stop = stop
        return self

    def __enter__(self) -> ByteReader[B]:
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop = self._outer.pop()
