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
* forwards requests over the firewall socket to the NJS and returns the
  NJS's answers as protocol replies.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import dataclass

from repro.ajo.errors import SerializationError
from repro.ajo.serialize import decode_ajo, decode_service
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
from repro.net.errors import ConnectionLost
from repro.net.https import HttpsChannel
from repro.net.sim_transport import Host, Message, Network
from repro.net.stream import StreamSender
from repro.observability import telemetry_for
from repro.protocol.client import RESPONSE_TIMEOUT_S
from repro.protocol.consignment import Consignment, decode_consignment_envelope
from repro.protocol.datapath import (
    INLINE_FILE_MAX,
    DataPlaneEndpoint,
    StreamIdAllocator,
    body_sender,
    channel_sender,
    encode_inline_reply,
    encode_stream_reply,
    entry_for_sender,
    send_stream,
)
from repro.protocol.messages import Reply, Request, RequestKind
from repro.protocol.retry import RetryPolicy
from repro.security.applet import SignedApplet
from repro.security.ca import CertificateStore
from repro.security.errors import AuthenticationError, SecurityError
from repro.security.uudb import UUDB
from repro.server.errors import ConsignError, ServerError
from repro.simkernel import Simulator
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
_REFUSALS = (ServerError, SerializationError, ServiceUnavailable, BrokerError)

#: What a handler answers: the reply payload, and the sender of a stream
#: to push ahead of the reply when the content travels on the data plane.
_Answer = tuple[bytes, StreamSender | None]


@dataclass(slots=True)
class _CachedReply:
    """What a retried request is answered from."""

    reply: Reply
    #: Sender of the bulk content pushed ahead of ``reply`` on the data
    #: plane, kept so a retry re-pushes the stream (the client-side
    #: reassembler deduplicates repeated chunks) without re-reading it.
    push: StreamSender | None
    expires_at: float = 0.0


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
        #: given the request, the span it runs under and (CONSIGN_JOB) the
        #: opened envelope; it returns an ``_Answer`` or raises a refusal.
        self.handlers = {
            RequestKind.CONSIGN_JOB: self._consign,
            RequestKind.QUERY: self._query,
            RequestKind.LIST: self._list,
            RequestKind.CONTROL: self._control,
            RequestKind.RETRIEVE_OUTCOME: self._retrieve_outcome,
            RequestKind.FETCH_FILE: self._fetch_file,
            RequestKind.DISPOSE: self._dispose,
        }
        #: client host name -> authenticated https channel.
        self._channels: dict[str, HttpsChannel] = {}
        #: request id -> cached reply, making retried requests idempotent
        #: (the async protocol resends after reply loss).  Insertion
        #: order is expiry order.
        self._reply_cache: dict[int, _CachedReply] = {}
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
        #: client's retry/breaker machinery deals with the dead air).
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
        if isinstance(payload, (bytes, bytearray, memoryview)):
            # Data-plane frame from a client channel.
            if self.down:
                telemetry_for(self.sim).metrics.counter(
                    "gateway.dropped_frames"
                ).inc()
            else:
                self.datapath.feed(payload)
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
        self._forget_expired()
        # A hit is a retried request (its reply was lost): resend, do
        # not redo.
        cached = self._reply_cache.get(request.request_id)
        if cached is None:
            reply, push = yield from self._process(channel, request)
            cached = _CachedReply(reply, push)
            self.requests_served += 1
        # Every use re-inserts at the end, renewing the entry.
        self._reply_cache.pop(request.request_id, None)
        cached.expires_at = self.sim.now + REPLY_RETENTION_S
        self._reply_cache[request.request_id] = cached
        if cached.push is not None:
            # Push the bulk stream first — the FIFO channel keeps the
            # frames ahead of the reply, and the client deduplicates a
            # re-push.
            try:
                yield from send_stream(
                    self.sim, cached.push,
                    channel_sender(channel, to_server=False),
                )
            except ConnectionLost:
                # Withhold the reply, so the client's request retry
                # triggers a fresh push from the cache instead of a
                # 10-minute stream-wait timeout.
                telemetry_for(self.sim).metrics.counter(
                    "gateway.push_aborts"
                ).inc()
                return
        channel.send(cached.reply, cached.reply.wire_size, to_server=False)

    def _forget_expired(self) -> None:
        """Drop cached replies (and the content their pushes pin) that no
        retry can ask for any more."""
        cache = self._reply_cache
        now = self.sim.now
        while cache:
            oldest = next(iter(cache))
            if cache[oldest].expires_at > now:
                break
            del cache[oldest]

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

        auth_started = self.sim.now
        yield self.sim.timeout(AUTH_CPU_S)
        try:
            self._authenticate(channel, request)
        except SecurityError as err:
            self.auth_failures += 1
            telemetry.metrics.counter("gateway.auth_failures").inc()
            tracer.end_span(auth_span, error=err)
            tracer.end_span(request_span, error=err)
            return _refusal(request, err), None
        telemetry.metrics.histogram("gateway.auth_seconds").observe(
            self.sim.now - auth_started
        )
        tracer.end_span(auth_span)

        # Consignment bytes that arrived on the data plane cross the
        # firewall with the request, so the envelope is opened here and
        # handed on to its handler.
        consignment = None
        fw_extra = 0
        if request.kind == RequestKind.CONSIGN_JOB:
            try:
                consignment = decode_consignment_envelope(request.payload)
                fw_extra = sum(e.size for e in consignment.streamed)
            except SerializationError:
                pass  # its handler refuses it; the hop is charged all the same
        yield from self._firewall_hop(
            self.host, self.njs.host, ("fw", request.request_id),
            request.wire_size + fw_extra,
        )

        try:
            answer = self.handlers[request.kind](
                request, request_span, consignment
            )
            if isinstance(answer, types.GeneratorType):
                # A subscription QUERY parks until the job completes.
                answer = yield from answer
            payload, push = answer
            reply = Reply(request_id=request.request_id, ok=True, payload=payload)
        except _REFUSALS as err:
            reply, push = _refusal(request, err), None

        yield from self._firewall_hop(
            self.njs.host, self.host, ("fw-reply", request.request_id),
            reply.wire_size
            + (push.open_info.total_size if push is not None else 0),
        )
        tracer.end_span(request_span, error=None if reply.ok else reply.error)
        return reply, push

    def _firewall_hop(self, src: Host, dst: Host, what: tuple, size: int):
        """One crossing of the gateway-NJS socket (section 5.2), when the
        two run on different hosts.  The socket is TCP on the site LAN:
        modelled as reliable (a lost frame is retransmitted below the
        layer we simulate)."""
        if src.name == dst.name:
            return
        try:
            yield self.network.send(
                src.name, dst.name, what, size, channel="firewall",
                deliver=False,
            )
        except ConnectionLost:
            pass

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
    def _consign(
        self, request: Request, span, consignment: Consignment | None
    ) -> _Answer:
        if consignment is None:  # malformed: open it again for the cause
            consignment = decode_consignment_envelope(request.payload)
        files: dict[str, FileBody | bytes] = dict(consignment.files)
        for entry in consignment.streamed:
            ready = self.datapath.take(entry.stream_id)
            if ready is None:
                # The upload never (fully) arrived — e.g. its frames
                # were dropped while this gateway was down.  Surface
                # as unavailability so the client fails over and
                # re-streams, rather than as a validation error.
                raise ServiceUnavailable(
                    f"consignment file {entry.path!r} references "
                    f"stream {entry.stream_id}, which never arrived"
                )
            if not ready.matches(entry):
                raise ConsignError(
                    f"consignment file {entry.path!r} failed its "
                    "stream integrity check"
                )
            files[entry.path] = ready.body
        ajo = decode_ajo(consignment.ajo_bytes)
        if ajo.user_dn and ajo.user_dn != request.user_dn:
            raise ConsignError(
                f"AJO names user {ajo.user_dn!r} but the request was "
                f"authenticated as {request.user_dn!r}"
            )
        run = self.njs.consign(
            ajo,
            workstation_files=files,
            trace_id=request.trace_id,
            parent_span_id=span.span_id,
            ajo_bytes=consignment.ajo_bytes,
        )
        return _json({"job_id": run.job_id}), None

    def _query(self, request: Request, *_):
        """Answer a QUERY, parking subscription requests until completion.

        A subscribing client asks the server to hold the request until
        the job reaches a terminal state (or ``hold_s`` elapses) — one
        interaction replaces a poll train.  The park rides the NJS's
        completion watcher; an NJS crash fires the watcher early, and the
        post-wake ``query_status`` then surfaces ``ServiceUnavailable``
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
        view = self.njs.query_status(service.target_job_id, detail=service.detail)
        # Serialization happens here, at the protocol edge, only.
        return _json(view.to_dict()), None

    def _list(self, request: Request, *_) -> _Answer:
        """The change-log delta since the client's cursor; a full listing
        when it has none or its epoch is over."""
        service = _service(request, ListService)
        delta = self.njs.list_jobs_delta(
            request.user_dn, service.since_seq, service.epoch
        )
        return _json(delta.to_dict()), None

    def _control(self, request: Request, *_) -> _Answer:
        service = _service(request, ControlService)
        self._authorize_job(service.target_job_id, request.user_dn)
        {  # decoding the service validated the verb
            ControlVerb.CANCEL: self.njs.cancel,
            ControlVerb.HOLD: self.njs.hold,
            ControlVerb.RESUME: self.njs.resume,
        }[service.verb](service.target_job_id)
        return _json({"acknowledged": service.verb}), None

    def _retrieve_outcome(self, request: Request, *_) -> _Answer:
        job_id = _job_id(request)
        self._authorize_job(job_id, request.user_dn)
        return self._bulk(request, FileBody(self.njs.retrieve_outcome(job_id)))

    def _fetch_file(self, request: Request, *_) -> _Answer:
        try:
            spec = json.loads(request.payload)
            job_id, path = spec["job_id"], spec["path"]
        except (ValueError, TypeError, KeyError, RecursionError):
            job_id = path = None
        if not (isinstance(job_id, str) and isinstance(path, str)):
            raise SerializationError(
                "FETCH_FILE request must carry a JSON object with the "
                "strings 'job_id' and 'path'"
            )
        self._authorize_job(job_id, request.user_dn)
        return self._bulk(request, self.njs.fetch_uspace_file(job_id, path))

    def _dispose(self, request: Request, *_) -> _Answer:
        job_id = _job_id(request)
        self._authorize_job(job_id, request.user_dn)
        self.njs.dispose(job_id)
        return _json({"disposed": job_id}), None

    def _bulk(self, request: Request, content: FileBody) -> _Answer:
        """Answer with content: inline if small, else a reference to a
        stream, whose sender is returned for pushing ahead of the reply.
        The frames carry the chunk CRCs ``content`` holds, so a file this
        site received as a stream is served without being read again.
        """
        if len(content) <= INLINE_FILE_MAX:
            return encode_inline_reply(content.data), None
        push = body_sender(
            self._stream_ids.next(), content,
            {"kind": "bulk-reply", "request": request.request_id},
        )
        return encode_stream_reply(entry_for_sender("", push)), push

    def _authorize_job(self, job_id: str, user_dn: str) -> None:
        """Users may only touch their own jobs."""
        run = self.njs.get_run(job_id)
        if run.user_dn != user_dn:
            raise ServerError(f"job {job_id} belongs to another user")


def _json(data: object) -> bytes:
    return json.dumps(data).encode()


_S = typing.TypeVar("_S", bound=AbstractService)


def _service(request: Request, expected: type[_S]) -> _S:
    """The service object a QUERY / LIST / CONTROL request carries."""
    service = decode_service(request.payload)
    if not isinstance(service, expected):
        raise SerializationError(
            f"{request.kind.upper()} request must carry a {expected.__name__}"
        )
    return service


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
