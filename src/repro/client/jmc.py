"""The Job Monitor Controller.

Paper section 5.7: "The JMC shows the job status of the user's UNICORE
jobs in a display similar to the one of the JPA.  The icons are colored
to reflect the job status in a seamless way.  Depending on the chosen
level of detail the status is displayed for job groups and/or tasks.
The standard output and error files can be listed and/or saved for
tasks."
"""

from __future__ import annotations

import json

from repro.ajo.outcome import AJOOutcome, Outcome, TaskOutcome
from repro.ajo.serialize import decode_outcome, encode_service
from repro.ajo.services import ControlService, ControlVerb, ListService, QueryService
from repro.client.browser import UnicoreSession
from repro.errors import WaitTimeout
from repro.faults.errors import CircuitOpenError, ServiceUnavailable
from repro.observability import telemetry_for
from repro.protocol.client import RESPONSE_TIMEOUT_S
from repro.protocol.datapath import fetch_bulk_payload
from repro.protocol.messages import Request, RequestKind
from repro.protocol.retry import RetryExhausted
from repro.protocol.views import JobStatusView
from repro.vfs.spaces import Workstation

__all__ = ["JobMonitorController"]

_TERMINAL = {"successful", "failed", "killed", "not_attempted"}


class JobMonitorController:
    """The JMC applet: monitor, control, and harvest job results."""

    #: How long each QUERY of :meth:`wait_for_completion` asks the gateway
    #: to park it — a held-open request costs no wire traffic.
    SUBSCRIBE_HOLD_S = 7200.0
    #: Extra response-timeout slack over the requested hold, covering
    #: transit and gateway processing before the reply is declared lost.
    SUBSCRIBE_REPLY_GRACE_S = 120.0

    def __init__(self, session: UnicoreSession) -> None:
        self.session = session
        #: Last good status tree per job as ``(sim_time, tree)``, for
        #: stale-but-served display during gateway outages.
        self._status_cache: dict[str, tuple[float, dict]] = {}
        #: Delta-listing state: the server change-log cursor and the
        #: merged rows (``job_id -> listing dict``) it is valid against.
        self._list_cursor: tuple[int, int] | None = None
        self._list_rows: dict[str, dict] = {}

    # -- the verbs (each method is a generator: yield from in a process) ----
    def _ask(
        self, kind: str, payload: bytes,
        response_timeout_s: float = RESPONSE_TIMEOUT_S,
        trace_id: str = "", parent_span_id: str = "",
    ):
        """One interaction: the reply's payload, or the error the server
        raised (:meth:`~repro.protocol.messages.Reply.unwrap`)."""
        reply = yield from self.session.client.interact(
            Request(
                kind=kind, user_dn=self.session.user_dn, payload=payload,
                trace_id=trace_id, parent_span_id=parent_span_id,
            ),
            response_timeout_s=response_timeout_s,
        )
        return reply.unwrap()

    def list_jobs(self):
        """The user's jobs at this Usite, fetched incrementally.

        The first call has no change-log cursor and gets the full
        listing; later calls send the cursor and receive only the
        listings that changed, merged into the cached rows client-side.
        An epoch change (the NJS crashed and restarted its log) is
        answered in full again and resyncs.
        """
        seq, epoch = self._list_cursor or (0, -1)
        data = json.loads((yield from self._ask(
            RequestKind.LIST,
            encode_service(ListService("list my jobs", since_seq=seq, epoch=epoch)),
        )))
        if data["full"]:
            self._list_rows = {row["job_id"]: row for row in data["listings"]}
        else:
            telemetry_for(self.session.client.sim).metrics.counter(
                "jmc.delta_views"
            ).inc()
            for row in data["listings"]:
                self._list_rows[row["job_id"]] = row
            for job_id in data["removed"]:
                self._list_rows.pop(job_id, None)
        self._list_cursor = (int(data["seq"]), int(data["epoch"]))
        return [self._list_rows[job_id] for job_id in sorted(self._list_rows)]

    def status(
        self,
        job_id: str,
        detail: str = QueryService.DETAIL_TASKS,
        allow_stale: bool = False,
    ):
        """The job's status tree; optionally degrade gracefully.

        With ``allow_stale``, an unreachable gateway (retry budget
        exhausted, or the circuit breaker open) or a crashed NJS behind
        it does not raise: the last good tree is re-served, flagged
        ``stale`` with the simulated time it was cached — the JMC keeps
        showing *something* through the outage instead of a blank display.
        """
        service = QueryService("status", target_job_id=job_id, detail=detail)
        try:
            payload = yield from self._ask(
                RequestKind.QUERY, encode_service(service)
            )
        except (RetryExhausted, CircuitOpenError, ServiceUnavailable):
            cached = self._status_cache.get(job_id)
            if not allow_stale or cached is None:
                raise
            telemetry_for(self.session.client.sim).metrics.counter(
                "client.stale_status_serves"
            ).inc()
            cached_at, tree = cached
            return JobStatusView.from_dict(tree).marked_stale(cached_at).to_dict()
        tree = json.loads(payload)
        self._status_cache[job_id] = (self.session.client.sim.now, tree)
        return tree

    def wait_for_completion(self, job_id: str, max_polls: int = 10_000):
        """Block until the job reaches a terminal state.

        Each QUERY *subscribes*: it asks the gateway to park the request
        until the job completes (or the hold elapses), so one interaction
        replaces a whole poll train.  A server that answers a subscribe
        immediately (no hold support) degrades to the classic poll
        cadence.  An NJS that crashed under the parked request raises
        :class:`~repro.faults.errors.ServiceUnavailable`, which the
        facade's wait loop rides out.

        Exhausting ``max_polls`` raises :class:`~repro.errors.WaitTimeout`
        (code ``api.wait_timeout``): the job is not failed, just not
        terminal within the caller's patience.
        """
        client = self.session.client
        hold = self.SUBSCRIBE_HOLD_S
        for _ in range(max_polls):
            service = QueryService(
                "wait", target_job_id=job_id, subscribe=True, hold_s=hold
            )
            asked_at = client.sim.now
            tree = json.loads((yield from self._ask(
                RequestKind.QUERY, encode_service(service),
                response_timeout_s=hold + self.SUBSCRIBE_REPLY_GRACE_S,
            )))
            self._status_cache[job_id] = (client.sim.now, tree)
            if tree["status"] in _TERMINAL:
                return tree
            if client.sim.now - asked_at < hold * 0.5:
                # The server answered well before the hold expired
                # without a terminal status: it does not park requests.
                # Fall back to the poll cadence so renewals don't spin.
                yield client.sim.timeout(client.poll_interval_s)
        raise WaitTimeout(job_id, max_polls)

    def outcome(self, job_id: str):
        """Fetch the full Outcome tree (stdout/stderr included)."""
        # Completes the per-job trace: outcome return is the last leg of
        # client -> gateway -> NJS -> batch -> outcome return.
        tracer = telemetry_for(self.session.client.sim).tracer
        trace_id = tracer.trace_id_for_job(job_id) or ""
        outcome_span = tracer.start_span(
            "client.outcome", trace_id, tier="user", job_id=job_id
        )
        try:
            reply = yield from self._ask(
                RequestKind.RETRIEVE_OUTCOME, job_id.encode(),
                trace_id=trace_id,
                parent_span_id=outcome_span.span_id,
            )
            # Large outcomes travel on the data plane: the gateway
            # pushed the stream ahead of this slim reply.
            payload = yield from fetch_bulk_payload(self.session.datapath, reply)
        except BaseException as err:
            tracer.end_span(outcome_span, error=err)
            raise
        tracer.end_span(outcome_span.set(outcome_bytes=len(payload)))
        return decode_outcome(payload)

    # -- control -----------------------------------------------------------------
    def control(self, job_id: str, verb: str):
        """Send a ControlService (cancel / hold / resume)."""
        service = ControlService(verb, target_job_id=job_id, verb=verb)
        return json.loads((yield from self._ask(
            RequestKind.CONTROL, encode_service(service)
        )))

    def cancel(self, job_id: str):
        return (yield from self.control(job_id, ControlVerb.CANCEL))

    def hold(self, job_id: str):
        """Pause delivery of the job's remaining parts."""
        return (yield from self.control(job_id, ControlVerb.HOLD))

    def resume(self, job_id: str):
        """Release a held job."""
        return (yield from self.control(job_id, ControlVerb.RESUME))

    def fetch_file(self, job_id: str, path: str, workstation=None,
                   save_as: str | None = None):
        """Bring a Uspace file back to the workstation (section 5.6).

        Returns the content; with ``workstation`` also saves it there.
        """
        reply = yield from self._ask(
            RequestKind.FETCH_FILE,
            json.dumps({"job_id": job_id, "path": path}).encode(),
        )
        content = yield from fetch_bulk_payload(self.session.datapath, reply)
        if workstation is not None:
            workstation.fs.write(save_as or f"/downloads/{path}", content)
        return content

    def dispose(self, job_id: str):
        """Release a finished job's Uspaces on the server."""
        return json.loads((yield from self._ask(
            RequestKind.DISPOSE, job_id.encode()
        )))

    # -- output handling (pure client-side helpers) --------------------------
    @staticmethod
    def list_task_outputs(outcome: AJOOutcome) -> dict[str, tuple[str, str]]:
        """``action_id -> (stdout, stderr)`` for every task in the tree."""
        outputs: dict[str, tuple[str, str]] = {}

        def walk(node: Outcome) -> None:
            if isinstance(node, TaskOutcome):
                outputs[node.action_id] = (node.stdout, node.stderr)
            if isinstance(node, AJOOutcome):
                for child in node.children.values():
                    walk(child)

        walk(outcome)
        return outputs

    @staticmethod
    def save_output(
        outcome: TaskOutcome, workstation: Workstation, path: str
    ) -> None:
        """Save a task's standard output to the user's workstation.

        Section 5.6: "The current implementation sends data back to the
        workstation only on user request while the user is working with
        the JMC" — this is that request.
        """
        workstation.fs.write(path, outcome.stdout.encode())

    @staticmethod
    def render_tree(tree: dict, indent: int = 0) -> str:
        """The JMC display: the job tree with status colors."""
        line = (
            " " * indent
            + f"[{tree['color']:>6}] {tree['name']} ({tree['status']})"
        )
        lines = [line]
        for child in tree.get("children", []):
            lines.append(JobMonitorController.render_tree(child, indent + 2))
        return "\n".join(lines)
