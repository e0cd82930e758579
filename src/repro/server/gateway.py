"""The gateway: https endpoint, security servlet, firewall split.

Paper section 4.2: the UNICORE server includes "the user authentication
provided by https by checking the user's certificate, [and] the Java
security servlet (gateway) which maps the user's certificate to the
user's id at the target system".  Section 5.2: "the two parts of the
UNICORE server, the Web server and the NJS, can be run on different
systems.  The Web server has to be installed on the firewall system and
the NJS on a system inside the firewall.  The communication between the
two components is done via IP socket connection to a site selectable
port."

The :class:`Gateway` therefore:

* terminates client https channels (mutual authentication already done
  by :func:`~repro.net.https.establish_https`);
* re-validates the peer certificate on every request and refuses
  requests whose claimed DN differs from the authenticated certificate;
* maps the DN to the local login via the site's UUDB;
* serves the signed applets and the Vsites' ASN.1 resource pages;
* answers a broker's CAPACITY request with the site's load report;
* forwards requests over the firewall socket to the NJS and returns the
  NJS's answers as protocol replies.

The socket is a relay, not a store-and-forward hop: a streamed file
crosses it one frame at a time, an upload's frames as they reach the
gateway and a download's just ahead of the channel send that carries
each on, so a split site pays one frame's crossing per direction, not
the whole payload's.  A retry answered from the reply cache crosses
nothing.
"""

from __future__ import annotations

import types
import typing

from repro import asn1
from repro.ajo.errors import SerializationError
from repro.ajo.serialize import decode_service
from repro.ajo.services import (
    AbstractService,
    ControlService,
    ControlVerb,
    ListService,
    QueryService,
)
from repro.broker.errors import BrokerError
from repro.errors import ReproError
from repro.faults.errors import ServiceUnavailable
from repro.net.errors import ConnectionLost, ConnectionRefused, FrameError
from repro.net.https import HttpsChannel
from repro.net.sim_transport import Host, Message, Network
from repro.net.stream import StreamSender, WireFrame
from repro.observability import telemetry_for
from repro.protocol.client import RESPONSE_TIMEOUT_S
from repro.protocol.consignment import decode_consignment_envelope
from repro.protocol.datapath import (
    INLINE_FILE_MAX,
    DataPlaneEndpoint,
    FileEntry,
    StreamIdAllocator,
    body_sender,
    claim,
    encode_item,
    send_stream,
)
from repro.protocol.messages import Reply, Request, RequestKind
from repro.protocol.retry import RetryPolicy
from repro.security.applet import SignedApplet
from repro.security.ca import CertificateStore
from repro.security.errors import AuthenticationError, SecurityError
from repro.security.uudb import UUDB
from repro.server.errors import ServerError
from repro.server.replycache import CachedReply, ReplyCache, inline_payload
from repro.simkernel import Event, Simulator
from repro.storage.journal import Arrival
from repro.vfs.body import FileBody

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.server.njs.supervisor import NetworkJobSupervisor

__all__ = ["Gateway"]

#: CPU cost of the gateway's per-request certificate re-validation.
AUTH_CPU_S = 0.003

#: Upper bound on how long one subscription QUERY may be parked waiting
#: for job completion.  Clients renew expired holds with a fresh QUERY,
#: so this caps per-request state lifetime without capping the wait.
MAX_SUBSCRIBE_HOLD_S = 24 * 3600.0

#: How long after its last use a cached reply is kept: the span of one
#: whole interaction under the client's default policy, every attempt
#: timing out and backing off the longest.  A resend renews it, so a
#: client with a larger attempt budget stays covered for as long as it
#: keeps retrying; past it no retry of that request can still arrive.
REPLY_RETENTION_S = RetryPolicy().max_attempts * (
    RESPONSE_TIMEOUT_S + RetryPolicy().max_delay_s
)


#: What a handler may raise to refuse its request.
_REFUSALS = (
    ServerError, SerializationError, ServiceUnavailable, BrokerError, FrameError
)

#: What a handler answers: the reply payload, and for a bulk answer the
#: content it carries — the body whose ``inline_payload`` is the payload,
#: or the sender of a stream to push ahead of the reply when the content
#: travels on the data plane.
_Answer = tuple[bytes, StreamSender | FileBody | None]


class Gateway:
    """The Usite's https front end and security servlet."""

    def __init__(
        self,
        sim: Simulator,
        usite_name: str,
        host: Host,
        network: Network,
        cert_store: CertificateStore,
        uudb: UUDB,
        njs: "NetworkJobSupervisor",
        applets: dict[str, SignedApplet] | None = None,
    ) -> None:
        self.sim = sim
        self.usite_name = usite_name
        self.host = host
        self.network = network
        self.cert_store = cert_store
        self.uudb = uudb
        self.njs = njs
        self.applets = dict(applets or {})
        #: The protocol's verbs, each with its one handler.  A handler is
        #: given the request and the span it runs under; it returns an
        #: ``_Answer`` or raises a refusal.
        self.handlers = {
            RequestKind.CONSIGN_JOB: self._consign,
            RequestKind.QUERY: self._query,
            RequestKind.LIST: self._list,
            RequestKind.CONTROL: self._control,
            RequestKind.RETRIEVE_OUTCOME: self._retrieve_outcome,
            RequestKind.FETCH_FILE: self._fetch_file,
            RequestKind.DISPOSE: self._dispose,
            RequestKind.CAPACITY: self._capacity,
        }
        #: client host name -> authenticated https channel.
        self._channels: dict[str, HttpsChannel] = {}
        #: request id -> cached reply, making retried requests idempotent
        #: (the async protocol resends after reply loss).
        self._reply_cache = ReplyCache(sim, REPLY_RETENTION_S)
        #: Data-plane intake: consignment uploads stream here ahead of
        #: their control-plane request.  Survives crashes alongside the
        #: reply cache (the process restarts on the same host).
        self.datapath = DataPlaneEndpoint(
            sim, metrics=telemetry_for(sim).metrics
        )
        self._stream_ids = StreamIdAllocator(f"gw:{usite_name}")
        #: Instrumentation.
        self.requests_served = 0
        self.auth_failures = 0
        #: True while crashed: inbound requests are silently dropped (the
        #: client's retry/breaker machinery deals with the dead air), and
        #: data-plane frames refused, so their stream sends them again.
        self.down = False

        host.serve(self._receive)

    # -- simulated crashes (driven by repro.faults) -------------------------
    def crash(self) -> None:
        """Stop serving.  Channels and the reply cache survive — the
        process restarts on the same host, and the reply cache is what
        keeps retried consigns idempotent across the outage."""
        if not self.down:
            self.down = True
            telemetry_for(self.sim).metrics.counter("gateway.crashes").inc()

    def restart(self) -> None:
        if self.down:
            self.down = False
            telemetry_for(self.sim).metrics.counter("gateway.restarts").inc()

    # -- connection management ---------------------------------------------
    def register_channel(self, client_host: str, channel: HttpsChannel) -> None:
        """Record an established client channel (called post-handshake)."""
        self._channels[client_host] = channel

    # -- content served alongside the applets ------------------------------
    def resource_pages(self) -> dict[str, bytes]:
        """ASN.1 resource pages of all local Vsites (section 5.4)."""
        return {
            name: vsite.resource_page.to_asn1()
            for name, vsite in self.njs.vsites.items()
        }

    def serve_applet(self, name: str) -> SignedApplet:
        try:
            return self.applets[name]
        except KeyError:
            raise ServerError(
                f"{self.usite_name}: no applet {name!r} "
                f"(available: {sorted(self.applets)})"
            ) from None

    # -- request handling --------------------------------------------------------
    def _receive(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, (WireFrame, bytes, bytearray, memoryview)):
            # Data-plane frame from a client channel (contiguous when it
            # came off a socket).
            if self.down:
                telemetry_for(self.sim).metrics.counter(
                    "gateway.refused_frames"
                ).inc()
                raise ConnectionRefused(f"gateway at {self.usite_name} is down")
            if self.datapath.feed(payload):
                # The frame goes on to the NJS as it arrives, so the
                # request it rides ahead of waits behind one frame at most.
                self._cross(self.host, self.njs.host, len(payload))
        elif isinstance(payload, Request):
            if self.down:
                telemetry_for(self.sim).metrics.counter(
                    "gateway.dropped_requests"
                ).inc()
            else:
                self.sim.process(
                    self._handle_request(message.sender, payload),
                    name=f"gw-req:{payload.request_id}",
                )
        elif self.njs.host.name == self.host.name:
            # Co-located deployment (no firewall split): this host is
            # shared, and peer NJS traffic lands here too.
            self.njs.dispatch_peer_message(payload)
        # Otherwise: NJS peer traffic merely transits this host with
        # deliver=False; anything else is ignored.

    def _handle_request(self, client_host: str, request: Request):
        channel = self._channels.get(client_host)
        if channel is None:
            # No authenticated channel: nothing to reply on; drop.
            self.auth_failures += 1
            telemetry_for(self.sim).metrics.counter("gateway.auth_failures").inc()
            return
        # A hit is a retried request (its reply was lost): resend, do
        # not redo.
        cached = self._reply_cache.lookup(request.request_id)
        fresh = cached is None
        if cached is None:
            reply, content = yield from self._process(channel, request)
            cached = CachedReply(reply, content)
            self.requests_served += 1
        else:
            reply = cached.reply
        self._reply_cache.renew(request.request_id, cached)

        def ready_s(size: int) -> float:
            """A fresh answer crosses from the NJS piece by piece, each
            crossing folded into the send that carries the piece on; a
            cached one is here already."""
            return self._cross(self.njs.host, self.host, size) if fresh else 0.0

        if cached.push is not None:
            # Push the bulk stream first — the FIFO channel keeps the
            # frames ahead of the reply, and the client deduplicates a
            # re-push.
            def send_frame(raw: WireFrame) -> Event:
                return channel.send(
                    raw, len(raw), to_server=False, ready_s=ready_s(len(raw))
                )

            try:
                yield from send_stream(self.sim, cached.push, send_frame)
            except ConnectionLost:
                # Withhold the reply, so the client's request retry
                # triggers a fresh push from the cache instead of a
                # 10-minute stream-wait timeout.
                telemetry_for(self.sim).metrics.counter(
                    "gateway.push_aborts"
                ).inc()
                return
        size = reply.wire_size
        channel.send(reply, size, to_server=False, ready_s=ready_s(size))

    def _process(self, channel: HttpsChannel, request: Request):
        telemetry = telemetry_for(self.sim)
        tracer = telemetry.tracer
        telemetry.metrics.counter("gateway.requests").inc()
        request_span = tracer.start_span(
            "gateway.request",
            request.trace_id,
            parent=request.parent_span_id,
            tier="server",
            kind=request.kind,
        )
        auth_span = tracer.start_span(
            "gateway.auth", request.trace_id, parent=request_span,
            tier="server",
        )

        # The request is checked as it arrives; the check's CPU and then
        # the crossing to the NJS are one timer.  A refusal, too, leaves
        # once the CPU is spent.
        authenticated = self.sim.now + AUTH_CPU_S
        try:
            self._authenticate(channel, request)
        except SecurityError as err:
            self.auth_failures += 1
            telemetry.metrics.counter("gateway.auth_failures").inc()
            tracer.end_span(auth_span, error=err, at=authenticated)
            yield self.sim.timeout(AUTH_CPU_S, name="auth")
            tracer.end_span(request_span, error=err)
            return _refusal(request, err), None
        tracer.end_span(auth_span, at=authenticated)
        yield self.sim.timeout(
            self._cross(
                self.host, self.njs.host, request.wire_size, delay_s=AUTH_CPU_S
            ),
            name="auth",
        )

        try:
            answer = self.handlers[request.kind](request, request_span)
            if isinstance(answer, types.GeneratorType):
                # A subscription QUERY parks until the job completes.
                answer = yield from answer
            payload, content = answer
            reply = Reply(request_id=request.request_id, ok=True, payload=payload)
        except _REFUSALS as err:
            reply, content = _refusal(request, err), None
        tracer.end_span(request_span, error=None if reply.ok else reply.error)
        return reply, content

    def _cross(
        self, src: Host, dst: Host, size: int, delay_s: float = 0.0
    ) -> float:
        """One crossing of the gateway-NJS socket (section 5.2), leaving
        ``delay_s`` from now at the earliest; returns the seconds until
        the bytes are across, ``delay_s`` when the two run on one host.
        The socket is TCP on the site LAN: modelled as reliable (a lost
        frame is retransmitted below the layer we simulate), so a
        crossing is a relay, not a message."""
        if src is dst:
            return delay_s
        return self.network.relay(src.name, dst.name, size, delay_s)

    def _authenticate(self, channel: HttpsChannel, request: Request) -> None:
        """The channel's peer certificate is the user's unique UNICORE
        identification: re-validate it, match the request's claim, and
        map it to a local uid (the security servlet's job)."""
        certificate = channel.session.server.peer_certificate
        try:
            self.cert_store.validate(certificate, now=self.sim.now)
        except SecurityError as err:
            raise type(err)(f"authentication failed: {err}") from err
        if str(certificate.subject) != request.user_dn:
            raise AuthenticationError(
                f"identity mismatch: request claims {request.user_dn!r} "
                f"but the channel authenticated {certificate.subject}"
            )
        self.uudb.map_certificate(certificate, vsite=request.vsite)

    # -- the verbs, one handler each (see ``self.handlers``) ------------------
    def _consign(self, request: Request, span) -> _Answer:
        consignment = decode_consignment_envelope(request.payload)
        run = self.njs.consign(Arrival(
            consignment.ajo_bytes,
            request.user_dn,
            claim(self.datapath, consignment.files),
            request.trace_id,
        ), parent_span_id=span.span_id)
        return asn1.encode(run.job_id), None

    def _query(self, request: Request, *_):
        """Answer a QUERY, parking subscription requests until completion.

        A subscribing client asks the server to hold the request until
        the job reaches a terminal state (or ``hold_s`` elapses) — one
        interaction replaces a poll train.  The park rides the NJS's
        completion watcher; an NJS crash fires the watcher early, and the
        post-wake ``status_reply`` then surfaces ``ServiceUnavailable``
        through the normal refusal path for the client to retry.
        """
        service = _service(request, QueryService)
        self._authorize_job(service.target_job_id, request.user_dn)
        if service.subscribe and service.hold_s > 0:
            watch = self.njs.watch_completion(service.target_job_id)
            if watch is not None:
                hold = min(service.hold_s, MAX_SUBSCRIBE_HOLD_S)
                telemetry_for(self.sim).metrics.counter(
                    "gateway.subscribe_holds"
                ).inc()
                deadline = self.sim.deadline(watch, hold)
                yield watch
                deadline.cancel()
        return self.njs.status_reply(service.target_job_id, service.detail), None

    def _list(self, request: Request, *_) -> _Answer:
        """The listing delta since the client's cursor; a full listing
        when it has none or its epoch is over."""
        service = _service(request, ListService)
        delta = self.njs.list_jobs_delta(
            request.user_dn, service.since_seq, service.epoch
        )
        return asn1.encode(delta.to_value()), None

    def _control(self, request: Request, *_) -> _Answer:
        service = _service(request, ControlService)
        self._authorize_job(service.target_job_id, request.user_dn)
        {  # decoding the service validated the verb
            ControlVerb.CANCEL: self.njs.cancel,
            ControlVerb.HOLD: self.njs.hold,
            ControlVerb.RESUME: self.njs.resume,
            ControlVerb.RECLAIM: self.njs.reclaim,
        }[service.verb](service.target_job_id)
        return asn1.encode(service.verb), None

    def _retrieve_outcome(self, request: Request, *_) -> _Answer:
        job_id = _job_id(request)
        self._authorize_job(job_id, request.user_dn)
        return self._bulk(request, FileBody(self.njs.retrieve_outcome(job_id)))

    def _fetch_file(self, request: Request, *_) -> _Answer:
        job_id, path = _fetch_spec(request.payload)
        self._authorize_job(job_id, request.user_dn)
        return self._bulk(request, self.njs.fetch_uspace_file(job_id, path))

    def _dispose(self, request: Request, *_) -> _Answer:
        job_id = _job_id(request)
        self._authorize_job(job_id, request.user_dn)
        self.njs.dispose(job_id)
        return asn1.encode(job_id), None

    def _capacity(self, *_) -> _Answer:
        """The site's load report, for any user the site maps: a broker
        pulls it, the site pushes nothing."""
        return asn1.encode(self.njs.capacity().to_value()), None

    def _bulk(self, request: Request, content: FileBody) -> _Answer:
        """Answer with content: inline if small, with the body for the
        reply cache to keep instead of the payload, else a reference to a
        stream, whose sender is returned for pushing ahead of the reply.
        The frames carry the chunk CRCs ``content`` holds, so a file this
        site received as a stream is served without being read again.
        """
        if len(content) <= INLINE_FILE_MAX:
            return inline_payload(content), content
        push = body_sender(
            self._stream_ids.next(), content,
            {"kind": "bulk-reply", "request": request.request_id},
        )
        return encode_item(FileEntry.of(push)), push

    def _authorize_job(self, job_id: str, user_dn: str) -> None:
        """Users may only touch their own jobs."""
        run = self.njs.get_run(job_id)
        if run.user_dn != user_dn:
            raise ServerError(f"job {job_id} belongs to another user")


_S = typing.TypeVar("_S", bound=AbstractService)


def _service(request: Request, expected: type[_S]) -> _S:
    """The service object a QUERY / LIST / CONTROL request carries."""
    service = decode_service(request.payload)
    if not isinstance(service, expected):
        raise SerializationError(
            f"{request.kind.upper()} request must carry a {expected.__name__}"
        )
    return service


def _fetch_spec(payload: bytes) -> tuple[str, str]:
    """The ``[job_id, path]`` value a FETCH_FILE request carries."""

    def refused(why: str) -> SerializationError:
        return SerializationError(
            f"FETCH_FILE request must carry the value [job_id, path]: {why}"
        )

    spec = asn1.decode(payload, refused)
    if type(spec) is list and len(spec) == 2:
        job_id, path = spec
        if type(job_id) is str and type(path) is str:
            return job_id, path
    raise refused(f"got {spec!r:.80}")


def _job_id(request: Request) -> str:
    """The job id a RETRIEVE_OUTCOME / DISPOSE request carries as text."""
    try:
        return request.payload.decode()
    except UnicodeDecodeError as err:
        raise SerializationError(
            f"{request.kind.upper()} request must carry a job id: {err}"
        ) from None


def _refusal(request: Request, err: ReproError) -> Reply:
    """A refusal travels as the message and stable code of the exception
    behind it; :meth:`Reply.unwrap` raises it again at the client."""
    return Reply(
        request_id=request.request_id, ok=False, error=str(err),
        error_code=err.code,
    )
