"""Exceptions for the transport layer (both backends).

The `net.*` codes are the stable contract: the simkernel backend and
the asyncio TCP backend raise the *same* classes for equivalent
conditions, so protocol retry machinery and facade callers never branch
on which fabric is underneath.  The refused/reset refinements subclass
:class:`ConnectionLost` deliberately — every retry loop written against
the sim backend (``except ConnectionLost``) handles real-socket failure
modes unchanged.
"""

from repro.errors import ReproError

__all__ = [
    "NetworkError",
    "HostUnreachable",
    "ConnectionLost",
    "ConnectionRefused",
    "ConnectionReset",
    "FrameError",
    "FrameDecodeError",
    "TransportMismatch",
]


class NetworkError(ReproError):
    """Base class for simulated-network errors."""

    code = "net.error"


class HostUnreachable(NetworkError):
    """No link exists between the two hosts."""

    code = "net.unreachable"


class ConnectionLost(NetworkError):
    """A message was lost in transit (the sender times out waiting)."""

    code = "net.connection_lost"


class ConnectionRefused(ConnectionLost):
    """The peer endpoint is not accepting connections.

    Raised by the asyncio backend when the TCP connect itself fails, and
    by a crashed NJS for every peer message that reaches it, on either
    backend (it fails the sender's hop as a loss does); an NJS that is up
    raises it for a DATA frame of a stream it does not hold.
    """

    code = "net.connection_refused"


class ConnectionReset(ConnectionLost):
    """An established connection dropped with the message unacknowledged.

    Raised by the asyncio backend when a socket hits EOF or a reset
    while frames are pending; the delivery events of every in-flight
    message on that connection fail with this.
    """

    code = "net.connection_reset"


class FrameError(NetworkError):
    """A data-plane frame is malformed, unsupported, or inconsistent."""

    code = "net.frame"


class FrameDecodeError(FrameError):
    """Bytes off the wire do not decode as a valid frame.

    Covers bad magic, unsupported version/type tags, and truncated or
    over-long bodies — anything where the codec cannot reconstruct the
    message that was sent.
    """

    code = "net.frame_decode"


class TransportMismatch(NetworkError):
    """A session facade was pointed at the wrong kind of transport.

    The blocking :class:`~repro.api.GridSession` cannot drive a realtime
    backend (its sends need a running event loop); requesting a backend
    that differs from what the grid was built with raises this too.
    """

    code = "net.transport_mismatch"
