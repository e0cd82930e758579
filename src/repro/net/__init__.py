"""The network layer: one wire protocol over two interchangeable fabrics.

The paper's components talk over the Internet (https between browser,
gateway, and peer NJSs; IP sockets across the firewall).  This package
carries that traffic behind one interface, :class:`Network`:

- :mod:`repro.net.sim_transport` — :class:`Network`, the interface and
  the deterministic simkernel backend in one: hosts with mailboxes,
  point-to-point links with latency, bandwidth, FIFO serialization, and
  Bernoulli loss (every test and deterministic benchmark runs here);
- :mod:`repro.net.aio_transport` — ``AioTransport(Network)``, the real
  ``asyncio`` TCP backend: WAN edges carry the same messages as
  length-prefixed frames over actual sockets (:mod:`repro.net.wire`),
  measured in wall clock;
- :mod:`repro.net.transport` — :class:`TransportSpec` /
  :func:`resolve_transport`, which choose between the two;
- :mod:`repro.net.https` — https-style channels over either fabric:
  certificate handshake round-trips plus per-record framing overhead
  (what makes bulk NJS-to-NJS transfer slow, experiment E5), and a
  direct-socket channel as the faster alternative the paper says
  "UNICORE is working on";
- :mod:`repro.net.stream` — the streaming data plane: binary frames
  that carry file bytes raw and chunked, so bulk transfers interleave
  with control messages and resume after a lost chunk.

All simulated randomness (loss) derives from a named RNG stream, so
sim-backend runs are deterministic.
"""

from repro.net.errors import (
    ConnectionLost,
    ConnectionRefused,
    ConnectionReset,
    FrameDecodeError,
    FrameError,
    HostUnreachable,
    NetworkError,
    TransportMismatch,
)
from repro.net.transport import TransportSpec, resolve_transport
from repro.net.sim_transport import Host, Link, Message, Network
from repro.net.https import DirectChannel, HttpsChannel, establish_https
from repro.net.stream import (
    Frame,
    FrameType,
    OpenInfo,
    StreamReassembler,
    StreamSender,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ConnectionLost",
    "ConnectionRefused",
    "ConnectionReset",
    "DirectChannel",
    "Frame",
    "FrameDecodeError",
    "FrameError",
    "FrameType",
    "Host",
    "HostUnreachable",
    "HttpsChannel",
    "Link",
    "Message",
    "Network",
    "NetworkError",
    "OpenInfo",
    "StreamReassembler",
    "StreamSender",
    "TransportMismatch",
    "TransportSpec",
    "decode_frame",
    "encode_frame",
    "establish_https",
    "resolve_transport",
]
