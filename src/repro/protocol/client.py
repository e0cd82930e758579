"""The asynchronous protocol client (the paper's design).

Interactions are kept short: one request, one acknowledging reply.  Job
progress is observed by *polling* with QUERY requests, never by holding a
connection open.  Lost messages are retried with bounded backoff; because
each interaction is idempotent at the server (consigns are deduplicated
by request id), retries are safe.
"""

from __future__ import annotations

import typing

from repro.net.errors import ConnectionLost
from repro.net.https import HttpsChannel
from repro.net.sim_transport import Host, Message
from repro.observability import telemetry_for
from repro.protocol.messages import Reply, Request
from repro.protocol.retry import PollBudgetExhausted, RetryExhausted, RetryPolicy
from repro.simkernel import EXPIRED, Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.breaker import CircuitBreaker

__all__ = ["RESPONSE_TIMEOUT_S", "ReplyRouter", "AsyncProtocolClient"]

#: How long a client waits for a reply before it resends the request.
RESPONSE_TIMEOUT_S = 60.0


class ReplyRouter:
    """Demultiplexes inbound :class:`Reply` messages by request id.

    One router serves a host; interaction coroutines register a
    request id and receive an event that fires with the matching reply.
    Non-reply messages are passed to ``fallback`` (for hosts that also
    serve other traffic).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fallback: typing.Callable[[object], None] | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self._waiting: dict[int, Event] = {}
        self._fallback = fallback
        host.serve(self._route)

    def expect(self, request_id: int) -> Event:
        """Event that fires with the :class:`Reply` for ``request_id``."""
        if request_id in self._waiting:
            raise ValueError(f"already waiting for request {request_id}")
        ev = self.sim.event(name=f"reply:{request_id}")
        self._waiting[request_id] = ev
        return ev

    def forget(self, request_id: int) -> None:
        """Stop waiting (used when a retry supersedes an older attempt)."""
        self._waiting.pop(request_id, None)

    def _route(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, Reply):
            waiter = self._waiting.pop(payload.request_id, None)
            # Unmatched replies (late duplicates) are dropped, and so is
            # one whose waiter's deadline passed at this very instant.
            if waiter is not None and not waiter.triggered:
                waiter.succeed(payload)
        elif self._fallback is not None:
            self._fallback(payload)


class AsyncProtocolClient:
    """Consign-and-poll over an established https channel."""

    def __init__(
        self,
        sim: Simulator,
        channel: HttpsChannel,
        router: ReplyRouter,
        retry: RetryPolicy | None = None,
        poll_interval_s: float = 30.0,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.router = router
        self.retry = retry or RetryPolicy()
        self.poll_interval_s = poll_interval_s
        #: Optional circuit breaker: open means interactions fast-fail
        #: with :class:`~repro.faults.errors.CircuitOpenError` instead of
        #: burning the full retry budget against a dead gateway.
        self.breaker = breaker
        #: Instrumentation for experiment E4.
        self.requests_sent = 0
        self.retries = 0

    # Each public operation is a generator to ``yield from`` inside a
    # simulation process; it returns the reply payload.
    def interact(
        self, request: Request, response_timeout_s: float = RESPONSE_TIMEOUT_S
    ) -> typing.Generator[Event, object, Reply]:
        """One short request/reply interaction with retries.

        ``response_timeout_s`` is how long to wait for the reply before
        resending — subscription QUERYs that the server deliberately
        parks need a window covering the requested hold.  Raises
        :class:`RetryExhausted` when the policy gives up; a server-side
        refusal comes back as the failed Reply (see
        :meth:`~repro.protocol.messages.Reply.unwrap`).
        """
        if self.breaker is not None:
            self.breaker.check()
        telemetry = telemetry_for(self.sim)
        tracer = telemetry.tracer
        interact_span = tracer.start_span(
            "protocol.interact",
            request.trace_id,
            parent=request.parent_span_id,
            tier="user",
            kind=request.kind,
            wire_bytes=request.wire_size,
        )
        last_error: BaseException | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            reply_ev = self.router.expect(request.request_id)
            self.requests_sent += 1
            telemetry.metrics.counter("protocol.requests_sent").inc()
            attempt_span = tracer.start_span(
                "protocol.attempt",
                request.trace_id,
                parent=interact_span,
                tier="user",
                attempt=attempt,
            )
            try:
                yield self.channel.send(request, request.wire_size)
                # The reply itself may be lost in transit, so the
                # expectation has a deadline.
                deadline = self.sim.deadline(reply_ev, response_timeout_s)
                reply = yield reply_ev
                deadline.cancel()
                if reply is not EXPIRED:
                    tracer.end_span(attempt_span)
                    tracer.end_span(interact_span)
                    if self.breaker is not None:
                        self.breaker.record_success()
                    return typing.cast(Reply, reply)
                last_error = ConnectionLost(
                    f"no reply to request {request.request_id} within "
                    f"{response_timeout_s}s"
                )
            except ConnectionLost as err:
                # The request was lost on the way out.
                last_error = err
            tracer.end_span(attempt_span, error=last_error)
            # Back off and resend the same idempotent request.
            self.router.forget(request.request_id)
            self.retries += 1
            telemetry.metrics.counter("protocol.retries").inc()
            if attempt < self.retry.max_attempts:
                yield self.sim.timeout(self.retry.delay_for(attempt))
        assert last_error is not None
        tracer.end_span(interact_span, error=last_error)
        if self.breaker is not None:
            self.breaker.record_failure()
        raise RetryExhausted(self.retry.max_attempts, last_error)

    def consign(
        self,
        ajo_bytes: bytes,
        user_dn: str,
        vsite: str = "",
        trace_id: str = "",
        parent_span_id: str = "",
    ) -> typing.Generator[Event, object, Reply]:
        """Consign a job; returns the acknowledgement reply (job id inside)."""
        request = Request(
            kind="consign_job",
            user_dn=user_dn,
            payload=ajo_bytes,
            vsite=vsite,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )
        reply = yield from self.interact(request)
        return reply

    def poll_until(
        self,
        make_query: typing.Callable[[], bytes],
        user_dn: str,
        is_done: typing.Callable[[Reply], bool],
        max_polls: int = 10_000,
    ) -> typing.Generator[Event, object, Reply]:
        """Poll with fresh QUERY requests until ``is_done(reply)``.

        This is the paper's asynchronous monitoring pattern: many short
        interactions instead of one long-held connection.
        """
        for _ in range(max_polls):
            reply = yield from self.interact(
                Request(kind="query", user_dn=user_dn, payload=make_query())
            )
            if is_done(reply):
                return reply
            yield self.sim.timeout(self.poll_interval_s)
        raise PollBudgetExhausted(
            max_polls, TimeoutError("job never reached a terminal state")
        )
