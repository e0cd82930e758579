"""Https-style channels over the simulated transport.

The paper routes *everything* over https: browser-to-gateway, gateway-to-
NJS-to-peer-gateway.  Https costs show up in three places this module
models explicitly:

1. **Handshake round trips** — :data:`~repro.security.ssl.HANDSHAKE_ROUND_TRIPS`
   small-message exchanges before any payload flows, plus the actual
   certificate validation (:func:`~repro.security.ssl.ssl_handshake`).
2. **Record framing** — every 16 KiB record carries
   :data:`~repro.security.ssl.RECORD_OVERHEAD` bytes of header + MAC.
3. **Per-record processing** — sealing and opening records costs CPU,
   which caps effective throughput regardless of link speed.  This is the
   mechanism behind section 5.6's "this solution has disadvantages with
   respect to transfer rates especially for huge data sets".

:class:`DirectChannel` is the unframed socket alternative the paper says
UNICORE was working on — one setup round trip, no per-record costs.
"""

from __future__ import annotations

import typing

from repro.net.sim_transport import Network
from repro.security.ca import CertificateStore
from repro.security.rsa import RSAKeyPair
from repro.security.ssl import (
    HANDSHAKE_ROUND_TRIPS,
    SSLSession,
    ssl_handshake,
)
from repro.security.x509 import Certificate
from repro.simkernel import Event, Simulator

__all__ = ["HttpsChannel", "DirectChannel", "establish_https"]

#: Bytes of a handshake message (hello / certificate / finished flights).
HANDSHAKE_MESSAGE_BYTES = 1500

#: Seconds of CPU to seal or open one 16 KiB record (1999-era hardware).
DEFAULT_PER_RECORD_CPU_S = 0.002


class HttpsChannel:
    """An established mutually-authenticated channel between two hosts."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        client_host: str,
        server_host: str,
        session: SSLSession,
        per_record_cpu_s: float = DEFAULT_PER_RECORD_CPU_S,
    ) -> None:
        self.sim = sim
        self.network = network
        self.client_host = client_host
        self.server_host = server_host
        self.session = session
        self.per_record_cpu_s = per_record_cpu_s
        #: Instrumentation: payload vs wire bytes pushed through this channel.
        self.payload_bytes = 0
        self.wire_bytes = 0

    def send(
        self, payload: object, size_bytes: int, to_server: bool = True,
        deliver: bool = True,
    ) -> Event:
        """Send ``payload`` through the channel; returns its delivery event.

        The event fires when the peer has received *and opened* all
        records; it fails with :class:`~repro.net.errors.ConnectionLost`
        if the transport drops the message.  It comes pre-defused so
        fire-and-forget sends (server replies) do not crash the
        simulation when lost — a waiter that ``yield``\\ s it still sees
        the exception.
        """
        wire = SSLSession.wire_bytes(size_bytes)
        src, dst = (
            (self.client_host, self.server_host)
            if to_server
            else (self.server_host, self.client_host)
        )
        # Sealing (sender CPU) and opening (receiver CPU) are charged
        # together, ahead of the wire: the transport holds the message
        # that long before its first byte leaves.  The channel is one
        # connection, so its messages leave in the order they were sent.
        delivery = self.network.send(
            src, dst, payload, wire, channel="https", deliver=deliver,
            delay_s=2 * SSLSession.record_count(size_bytes) * self.per_record_cpu_s,
        )
        self.payload_bytes += size_bytes
        self.wire_bytes += wire
        return delivery.defuse()


class DirectChannel:
    """The unframed high-throughput alternative (section 5.6 outlook).

    No certificate handshake, no record framing, no per-record CPU — just
    the raw link.  Benchmarks compare this against :class:`HttpsChannel`.
    """

    def __init__(
        self, sim: Simulator, network: Network, client_host: str, server_host: str
    ) -> None:
        self.sim = sim
        self.network = network
        self.client_host = client_host
        self.server_host = server_host
        self.payload_bytes = 0

    @classmethod
    def establish(
        cls, sim: Simulator, network: Network, client_host: str, server_host: str
    ) -> typing.Generator[Event, object, "DirectChannel"]:
        """One setup round trip, then the channel is ready (yield from)."""
        yield network.send(
            client_host, server_host, ("syn",), 64, channel="direct", deliver=False
        )
        yield network.send(
            server_host, client_host, ("ack",), 64, channel="direct", deliver=False
        )
        return cls(sim, network, client_host, server_host)

    def send(
        self, payload: object, size_bytes: int, to_server: bool = True,
        deliver: bool = True,
    ) -> Event:
        src, dst = (
            (self.client_host, self.server_host)
            if to_server
            else (self.server_host, self.client_host)
        )
        self.payload_bytes += size_bytes
        return self.network.send(
            src, dst, payload, size_bytes, channel="direct", deliver=deliver
        )


def establish_https(
    sim: Simulator,
    network: Network,
    client_host: str,
    server_host: str,
    *,
    client_cert: Certificate,
    client_key: RSAKeyPair,
    server_cert: Certificate,
    server_key: RSAKeyPair,
    client_store: CertificateStore,
    server_store: CertificateStore,
    per_record_cpu_s: float = DEFAULT_PER_RECORD_CPU_S,
) -> typing.Generator[Event, object, HttpsChannel]:
    """Full https establishment as a sub-process (use with ``yield from``).

    Performs the handshake round trips on the wire, then the mutual
    certificate validation of section 4.1.  Raises
    :class:`~repro.security.errors.AuthenticationError` on rejection and
    :class:`~repro.net.errors.ConnectionLost` if a handshake flight is
    dropped.
    """
    for i in range(HANDSHAKE_ROUND_TRIPS):
        yield network.send(
            client_host, server_host, ("hs", i), HANDSHAKE_MESSAGE_BYTES,
            channel="https-handshake", deliver=False,
        )
        yield network.send(
            server_host, client_host, ("hs-ack", i), HANDSHAKE_MESSAGE_BYTES,
            channel="https-handshake", deliver=False,
        )
    session = ssl_handshake(
        client_cert=client_cert,
        client_key=client_key,
        server_cert=server_cert,
        server_key=server_key,
        client_store=client_store,
        server_store=server_store,
        now=sim.now,
    )
    return HttpsChannel(
        sim, network, client_host, server_host, session,
        per_record_cpu_s=per_record_cpu_s,
    )
