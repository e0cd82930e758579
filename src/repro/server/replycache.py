"""The gateway's reply cache: what makes a retried request idempotent.

The protocol is asynchronous (paper section 5.3): a client that loses a
reply resends its request under the same id, and the gateway answers it
from here instead of doing the work again.  An entry lives for a window
after its last use that no retry can outlast, and each use renews it.

An entry keeps what its reply was built from, not a copy of it: a bulk
answer's file body (inline, re-encoded on a hit, which gives the same
bytes: the encoding is canonical) or the sender of the stream pushed
ahead of it.  So a cached answer holds the one ``bytes`` of its file the
process already holds, however often the file was fetched.
"""

from __future__ import annotations

import dataclasses

from repro.net.stream import StreamSender
from repro.protocol.datapath import encode_item
from repro.protocol.messages import Reply
from repro.simkernel import Simulator
from repro.vfs.body import FileBody

__all__ = ["CachedReply", "ReplyCache", "inline_payload"]


def inline_payload(body: FileBody) -> bytes:
    """The payload of a bulk reply that carries ``body`` inline: the one
    encoding of it, for the first send and for every retry."""
    return encode_item(body.data)


class CachedReply:
    """What a retried request is answered from."""

    __slots__ = ("_reply", "body", "push", "expires_at")

    def __init__(
        self, reply: Reply, content: StreamSender | FileBody | None
    ) -> None:
        """``content`` is what a bulk ``reply`` answered with: the body
        whose :func:`inline_payload` it carries, or the sender of its
        stream."""
        #: Sender of the bulk content pushed ahead of the reply on the
        #: data plane, kept so a retry re-pushes the stream (the
        #: client-side reassembler deduplicates repeated chunks) without
        #: re-reading it.
        self.push = content if isinstance(content, StreamSender) else None
        #: The body an inline bulk reply encodes, kept instead of its
        #: payload: the bytes this process already holds, not a copy.
        self.body = content if isinstance(content, FileBody) else None
        self._reply = (
            reply if self.body is None
            else dataclasses.replace(reply, payload=b"")
        )
        self.expires_at = 0.0

    @property
    def reply(self) -> Reply:
        """The reply as first sent, its inline body encoded again."""
        if self.body is None:
            return self._reply
        return dataclasses.replace(self._reply, payload=inline_payload(self.body))


class ReplyCache(dict[int, CachedReply]):
    """request id -> cached reply.  Insertion order is expiry order."""

    def __init__(self, sim: Simulator, retention_s: float) -> None:
        super().__init__()
        self._sim = sim
        #: How long after its last use an entry is kept.
        self._retention_s = retention_s

    def lookup(self, request_id: int) -> CachedReply | None:
        """The entry a retry of ``request_id`` is answered from, if any;
        first drops the entries (and the content their pushes pin) that
        no retry can ask for any more."""
        now = self._sim.now
        while self:
            oldest = next(iter(self))
            if self[oldest].expires_at > now:
                break
            del self[oldest]
        return self.get(request_id)

    def renew(self, request_id: int, cached: CachedReply) -> None:
        """Keep ``cached`` for ``request_id`` a whole window from now: every
        use re-inserts it at the end."""
        self.pop(request_id, None)
        cached.expires_at = self._sim.now + self._retention_s
        self[request_id] = cached
