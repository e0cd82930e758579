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
import typing
from dataclasses import dataclass

from repro.ajo.errors import SerializationError
from repro.ajo.serialize import decode_ajo, decode_service
from repro.ajo.services import ControlService, ControlVerb, ListService, QueryService
from repro.net.errors import ConnectionLost
from repro.net.https import HttpsChannel
from repro.net.sim_transport import Host, Network
from repro.net.stream import StreamSender
from repro.observability import telemetry_for
from repro.protocol.client import RESPONSE_TIMEOUT_S
from repro.protocol.consignment import decode_consignment_envelope
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
from repro.security.errors import MappingError, SecurityError
from repro.security.uudb import UUDB
from repro.server.errors import ConsignError, ServerError, UnknownUnicoreJobError
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
        auth_cpu_s: float = AUTH_CPU_S,
    ) -> None:
        self.sim = sim
        self.usite_name = usite_name
        self.host = host
        self.network = network
        self.cert_store = cert_store
        self.uudb = uudb
        self.njs = njs
        self.applets = dict(applets or {})
        self.auth_cpu_s = auth_cpu_s
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

        sim.process(self._server_loop(), name=f"gateway:{usite_name}")

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
    def _server_loop(self):
        while True:
            message = yield self.host.receive()
            if isinstance(message.payload, (bytes, bytearray, memoryview)):
                # Data-plane frame from a client channel.
                if self.down:
                    telemetry_for(self.sim).metrics.counter(
                        "gateway.dropped_frames"
                    ).inc()
                else:
                    self.datapath.feed(message.payload)
                continue
            if self.down and isinstance(message.payload, Request):
                telemetry_for(self.sim).metrics.counter(
                    "gateway.dropped_requests"
                ).inc()
                continue
            if isinstance(message.payload, Request):
                self.sim.process(
                    self._handle_request(message.sender, message.payload),
                    name=f"gw-req:{message.payload.request_id}",
                )
            elif self.njs.host.name == self.host.name:
                # Co-located deployment (no firewall split): this host's
                # inbox is shared, and peer NJS traffic lands here too.
                self.njs.dispatch_peer_message(message.payload)
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
                    metrics=telemetry_for(self.sim).metrics,
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
        request_span = None
        auth_span = None
        if request.trace_id:
            request_span = tracer.start_span(
                "gateway.request",
                request.trace_id,
                parent=request.parent_span_id or None,
                tier="server",
                kind=request.kind,
            )
            auth_span = tracer.start_span(
                "gateway.auth", request.trace_id, parent=request_span,
                tier="server",
            )

        def refuse(error: str) -> tuple[Reply, None]:
            self.auth_failures += 1
            telemetry.metrics.counter("gateway.auth_failures").inc()
            if auth_span is not None:
                tracer.end_span(auth_span, error=error)
                tracer.end_span(request_span, error=error)
            return (
                Reply(request_id=request.request_id, ok=False, error=error),
                None,
            )

        # Authentication: the channel's peer certificate is the user's
        # unique UNICORE identification; re-validate and match the claim.
        auth_started = self.sim.now
        yield self.sim.timeout(self.auth_cpu_s)
        certificate = channel.session.server.peer_certificate
        try:
            self.cert_store.validate(certificate, now=self.sim.now)
        except SecurityError as err:
            return refuse(f"authentication failed: {err}")
        if str(certificate.subject) != request.user_dn:
            return refuse(
                f"identity mismatch: request claims {request.user_dn!r} "
                f"but the channel authenticated {certificate.subject}"
            )
        # Certificate-to-uid mapping (the security servlet's job).
        try:
            self.uudb.map_certificate(certificate, vsite=request.vsite)
        except MappingError as err:
            return refuse(str(err))
        telemetry.metrics.histogram("gateway.auth_seconds").observe(
            self.sim.now - auth_started
        )
        if auth_span is not None:
            tracer.end_span(auth_span)

        # Firewall hop: gateway -> NJS socket (section 5.2).  The socket
        # is TCP on the site LAN: model it as reliable (a lost frame is
        # retransmitted below the layer we simulate).  Consignment bytes
        # that arrived on the data plane cross the firewall here too.
        fw_extra = 0
        # Byte accounting for the firewall hop, not a dispatch site:
        # the verb's handler lives in _dispatch.  # devlint: ignore[RD402]
        if request.kind == RequestKind.CONSIGN_JOB:
            try:
                fw_extra = sum(
                    e.size
                    for e in decode_consignment_envelope(request.payload).streamed
                )
            except SerializationError:
                fw_extra = 0
        if self.njs.host.name != self.host.name:
            try:
                yield self.network.send(
                    self.host.name, self.njs.host.name,
                    ("fw", request.request_id),
                    request.wire_size + fw_extra, channel="firewall",
                    deliver=False,
                )
            except ConnectionLost:
                pass

        from repro.broker.errors import BrokerError
        from repro.faults.errors import ServiceUnavailable

        push: StreamSender | None = None
        try:
            if request.kind == RequestKind.QUERY:
                reply = yield from self._dispatch_query(request)
            else:
                reply, push = self._dispatch(request, parent_span=request_span)
        except (
            ConsignError, UnknownUnicoreJobError, SerializationError,
            ServerError, ServiceUnavailable, BrokerError,
        ) as err:
            reply = Reply(
                request_id=request.request_id, ok=False, error=str(err),
                error_code=getattr(err, "code", ""),
            )

        if self.njs.host.name != self.host.name:
            reply_extra = push.open_info.total_size if push is not None else 0
            try:
                yield self.network.send(
                    self.njs.host.name, self.host.name,
                    ("fw-reply", request.request_id),
                    reply.wire_size + reply_extra, channel="firewall",
                    deliver=False,
                )
            except ConnectionLost:
                pass
        if request_span is not None:
            tracer.end_span(
                request_span, error=None if reply.ok else reply.error
            )
        return reply, push

    def _bulk_reply(
        self, request_id: int, content: FileBody
    ) -> tuple[Reply, StreamSender | None]:
        """Reply with content: inline if small, else a reference to a
        stream, whose sender is returned for pushing ahead of the reply.
        The frames carry the chunk CRCs ``content`` holds, so a file this
        site received as a stream is served without being read again.
        """
        push = None
        if len(content) <= INLINE_FILE_MAX:
            payload = encode_inline_reply(content.data)
        else:
            push = body_sender(
                self._stream_ids.next(), content,
                {"kind": "bulk-reply", "request": request_id},
            )
            payload = encode_stream_reply(entry_for_sender("", push))
        return Reply(request_id=request_id, ok=True, payload=payload), push

    def _dispatch(
        self, request: Request, parent_span=None
    ) -> tuple[Reply, StreamSender | None]:
        if request.kind == RequestKind.CONSIGN_JOB:
            consignment = decode_consignment_envelope(request.payload)
            files: dict[str, FileBody | bytes] = dict(consignment.files)
            for entry in consignment.streamed:
                ready = self.datapath.take(entry.stream_id)
                if ready is None:
                    # The upload never (fully) arrived — e.g. its frames
                    # were dropped while this gateway was down.  Surface
                    # as unavailability so the client fails over and
                    # re-streams, rather than as a validation error.
                    from repro.faults.errors import ServiceUnavailable

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
                parent_span_id=parent_span.span_id if parent_span else "",
                ajo_bytes=consignment.ajo_bytes,
            )
            return Reply(
                request_id=request.request_id, ok=True,
                payload=json.dumps({"job_id": run.job_id}).encode(),
            ), None

        if request.kind == RequestKind.LIST:
            service = decode_service(request.payload)
            if not isinstance(service, ListService):
                raise SerializationError("LIST request must carry a ListService")
            if service.since_seq >= 0:
                # Cursor-carrying client: answer with the change-log
                # delta (or a cursored full listing on epoch mismatch).
                delta = self.njs.list_jobs_delta(
                    request.user_dn, service.since_seq, service.epoch
                )
                return Reply(
                    request_id=request.request_id, ok=True,
                    payload=json.dumps(delta.to_dict()).encode(),
                ), None
            jobs = self.njs.list_jobs(request.user_dn)
            return Reply(
                request_id=request.request_id, ok=True,
                payload=json.dumps([j.to_dict() for j in jobs]).encode(),
            ), None

        if request.kind == RequestKind.CONTROL:
            service = decode_service(request.payload)
            if not isinstance(service, ControlService):
                raise SerializationError("CONTROL request must carry a ControlService")
            self._authorize_job(service.target_job_id, request.user_dn)
            if service.verb == ControlVerb.CANCEL:
                self.njs.cancel(service.target_job_id)
            elif service.verb == ControlVerb.HOLD:
                self.njs.hold(service.target_job_id)
            elif service.verb == ControlVerb.RESUME:
                self.njs.resume(service.target_job_id)
            else:  # pragma: no cover - verbs validated at construction
                raise ServerError(f"control verb {service.verb!r} unsupported")
            return Reply(
                request_id=request.request_id, ok=True,
                payload=json.dumps({"acknowledged": service.verb}).encode(),
            ), None

        if request.kind == RequestKind.RETRIEVE_OUTCOME:
            job_id = request.payload.decode()
            self._authorize_job(job_id, request.user_dn)
            outcome_bytes = self.njs.retrieve_outcome(job_id)
            return self._bulk_reply(request.request_id, FileBody(outcome_bytes))

        if request.kind == RequestKind.FETCH_FILE:
            spec = json.loads(request.payload)
            self._authorize_job(spec["job_id"], request.user_dn)
            content = self.njs.fetch_uspace_file(spec["job_id"], spec["path"])
            return self._bulk_reply(request.request_id, content)

        if request.kind == RequestKind.DISPOSE:
            job_id = request.payload.decode()
            self._authorize_job(job_id, request.user_dn)
            self.njs.dispose(job_id)
            return Reply(
                request_id=request.request_id, ok=True,
                payload=json.dumps({"disposed": job_id}).encode(),
            ), None

        raise ServerError(f"unhandled request kind {request.kind!r}")

    def _dispatch_query(self, request: Request):
        """Answer a QUERY, parking subscription requests until completion.

        A subscribing client asks the server to hold the request until
        the job reaches a terminal state (or ``hold_s`` elapses) — one
        interaction replaces a poll train.  The park rides the NJS's
        completion watcher; an NJS crash fires the watcher early, and the
        post-wake ``query_status`` then surfaces ``ServiceUnavailable``
        through the normal error-reply path for the client to retry.
        """
        service = decode_service(request.payload)
        if not isinstance(service, QueryService):
            raise SerializationError("QUERY request must carry a QueryService")
        self._authorize_job(service.target_job_id, request.user_dn)
        if service.subscribe and service.hold_s > 0:
            watch = self.njs.watch_completion(service.target_job_id)
            if watch is not None:
                hold = min(service.hold_s, MAX_SUBSCRIBE_HOLD_S)
                telemetry_for(self.sim).metrics.counter(
                    "gateway.subscribe_holds"
                ).inc()
                # Hold deadline as a cancellable slot: when the watcher
                # fires first (the common case) the hours-away timer is
                # cancelled instead of lingering in the event queue.
                hold_ev = self.sim.event(name="subscribe-hold")
                deadline = self.sim.schedule_callback(
                    hold, self._fire_hold, hold_ev
                )
                yield watch | hold_ev
                deadline.cancel()
        view = self.njs.query_status(service.target_job_id, detail=service.detail)
        # Serialization happens here, at the protocol edge, only.
        return Reply(
            request_id=request.request_id, ok=True,
            payload=json.dumps(view.to_dict()).encode(),
        )

    @staticmethod
    def _fire_hold(hold_ev) -> None:
        if not hold_ev.triggered:
            hold_ev.succeed()

    def _authorize_job(self, job_id: str, user_dn: str) -> None:
        """Users may only touch their own jobs."""
        run = self.njs.get_run(job_id)
        if run.user_dn != user_dn:
            raise ServerError(
                f"job {job_id} belongs to another user"
            )
