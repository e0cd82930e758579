"""The user's web browser: connection, authentication, applet loading."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.net.https import HttpsChannel, establish_https
from repro.net.sim_transport import Network
from repro.observability import telemetry_for
from repro.protocol.client import AsyncProtocolClient, ReplyRouter
from repro.protocol.datapath import DataPlaneEndpoint, StreamIdAllocator
from repro.protocol.retry import RetryPolicy
from repro.resources.page import ResourcePage
from repro.security.applet import SignedApplet, verify_applet
from repro.security.ca import CertificateStore
from repro.security.rsa import RSAKeyPair
from repro.security.x509 import Certificate
from repro.server.usite import Usite
from repro.simkernel import Simulator
from repro.vfs.spaces import Workstation

__all__ = ["Browser", "UnicoreSession"]

#: The applets every session loads: "the job preparation agent (JPA) to
#: create and submit UNICORE jobs" and the job monitor controller.
APPLET_NAMES = ("JPA", "JMC")


@dataclass(slots=True)
class UnicoreSession:
    """An authenticated session with one Usite, applets loaded.

    Carries the protocol client the JPA/JMC use, the resource pages the
    gateway served (decoded from ASN.1), and the verified applets.
    """

    usite: str
    user_dn: str
    channel: HttpsChannel
    client: AsyncProtocolClient
    resource_pages: dict[str, ResourcePage]
    #: The client's data-plane endpoint (streamed replies land here) and
    #: its stream-id allocator for uploads.
    datapath: DataPlaneEndpoint
    stream_ids: StreamIdAllocator
    applets: dict[str, SignedApplet] = field(default_factory=dict)
    #: Trace of the connect sequence (handshake, applet load, pages).
    trace_id: str = ""


class Browser:
    """The paper's user access mechanism: a standard web browser.

    "Zero administration": all software arrives as signed applets from
    the server; the browser only holds the user's certificate and the
    trusted CA list.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_name: str,
        user_cert: Certificate,
        user_key: RSAKeyPair,
        trust_store: CertificateStore,
        workstation: Workstation | None = None,
        retry: RetryPolicy | None = None,
        poll_interval_s: float = 30.0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = network.host(host_name)
        self.user_cert = user_cert
        self.user_key = user_key
        self.trust_store = trust_store
        self.workstation = workstation or Workstation(str(user_cert.subject))
        self.retry = retry or RetryPolicy()
        self.poll_interval_s = poll_interval_s
        self._router: ReplyRouter | None = None
        #: Data plane: one endpoint and one stream-id space per browser,
        #: shared across sessions (failover reconnects reuse them).
        self.datapath = DataPlaneEndpoint(
            sim, metrics=telemetry_for(sim).metrics
        )
        self.stream_ids = StreamIdAllocator(f"client:{host_name}")

    @property
    def user_dn(self) -> str:
        return str(self.user_cert.subject)

    def connect(self, usite: Usite, gateway=None) -> typing.Generator:
        """Connect to a Usite (``yield from`` inside a process).

        Performs the section 4.1 sequence: mutual https authentication,
        then applet download + signature verification, then resource-page
        retrieval.  Returns a :class:`UnicoreSession`.

        ``gateway`` selects one of a load-balanced Usite's gateways (any
        :class:`~repro.server.gateway.Gateway` of that Usite); the
        session sticks to it for its lifetime.
        """
        gateway = gateway if gateway is not None else usite.gateway
        tracer = telemetry_for(self.sim).tracer
        session_trace = tracer.new_trace("session")
        handshake_span = tracer.start_span(
            "client.handshake", session_trace, tier="user", usite=usite.name
        )
        channel = yield from establish_https(
            self.sim,
            self.network,
            self.host.name,
            gateway.host.name,
            client_cert=self.user_cert,
            client_key=self.user_key,
            server_cert=usite.server_cert,
            server_key=usite.server_key,
            client_store=self.trust_store,
            server_store=usite.cert_store,
        )
        tracer.end_span(handshake_span)
        gateway.register_channel(self.host.name, channel)

        # Applets load "from the server into the Web browser only in case
        # of successful user authentication".
        applet_span = tracer.start_span(
            "client.applet_load", session_trace, tier="user"
        )
        applets: dict[str, SignedApplet] = {}
        for name in APPLET_NAMES:
            applet = gateway.serve_applet(name)
            # Download cost over the authenticated channel.
            yield channel.send(
                ("applet", name), applet.bundle.total_size,
                to_server=False, deliver=False,
            )
            # "The applet certificate is checked to assure the user that
            # the software has not been tampered with."
            self.trust_store.validate(applet.signer_certificate, now=self.sim.now)
            verify_applet(applet)
            applets[name] = applet
        tracer.end_span(
            applet_span.set(
                applets=len(applets),
                bytes=sum(a.bundle.total_size for a in applets.values()),
            )
        )

        # Resource pages ship with the applet (section 5.4).
        pages_span = tracer.start_span(
            "client.resource_pages", session_trace, tier="user"
        )
        pages_asn1 = gateway.resource_pages()
        total = sum(len(b) for b in pages_asn1.values())
        if total:
            yield channel.send(
                ("resource-pages",), total, to_server=False, deliver=False
            )
        pages = {
            vsite: ResourcePage.from_asn1(blob)
            for vsite, blob in pages_asn1.items()
        }
        tracer.end_span(pages_span.set(vsites=len(pages), bytes=total))

        if self._router is None:
            # Non-Reply payloads on this host are data-plane frames the
            # gateway pushed (streamed FETCH_FILE / outcome content).
            self._router = ReplyRouter(
                self.sim, self.host, fallback=self.datapath.feed
            )
        client = AsyncProtocolClient(
            self.sim, channel, self._router,
            retry=self.retry, poll_interval_s=self.poll_interval_s,
        )
        return UnicoreSession(
            usite=usite.name,
            user_dn=self.user_dn,
            channel=channel,
            client=client,
            resource_pages=pages,
            applets=applets,
            trace_id=session_trace,
            datapath=self.datapath,
            stream_ids=self.stream_ids,
        )
