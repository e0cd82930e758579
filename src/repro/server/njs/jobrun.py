"""Per-job runtime state inside an NJS, for a job under supervision, and
the one status renderer every run's kept replies come from."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro import asn1
from repro.ajo.dag import JobPlan
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import AJOOutcome, Outcome, new_outcome
from repro.ajo.serialize import encode_outcome
from repro.ajo.services import QueryService
from repro.ajo.status import ActionStatus
from repro.observability import telemetry_for
from repro.observability.span import INERT_SPAN, Span
from repro.observability.tracer import Tracer
from repro.protocol.views import JobStatusView
from repro.simkernel import Event, Simulator
from repro.vfs.body import FileBody
from repro.vfs.spaces import Uspace

__all__ = ["JobRun", "index_outcomes", "status_replies", "status_view"]


@dataclass(slots=True)
class JobRun:
    """Everything an NJS tracks about one UNICORE job under supervision
    (a finished one is a :class:`~repro.server.njs.finished.FinishedRun`).

    Attributes
    ----------
    plan:
        The arrival analysis's :class:`~repro.ajo.dag.JobPlan` of the job.
    outcomes:
        Flat index ``action_id -> Outcome``; the same objects are linked
        into the nested :class:`AJOOutcome` tree at ``root_outcome``.
    events:
        ``action_id -> Event`` fired (with the final :class:`ActionStatus`)
        when that action reaches a terminal state — the NJS's dependency
        sequencing waits on these.
    uspaces:
        ``group action_id -> Uspace`` job directories created per group.
    batch_jobs:
        ``action_id -> (vsite_name, local_job_id)`` for delivered tasks.
    workstation_files:
        Files that rode along inside the consignment (section 5.6).
    """

    job_id: str
    root: AbstractJobObject
    plan: JobPlan
    user_dn: str
    submitted_at: float
    #: Where this run's spans are recorded.
    tracer: Tracer
    #: Fired with the job's FinishedRun once supervision ends.
    done_event: Event
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    events: dict[str, Event] = field(default_factory=dict)
    uspaces: dict[str, Uspace] = field(default_factory=dict)
    batch_jobs: dict[str, tuple[str, str]] = field(default_factory=dict)
    workstation_files: dict[str, FileBody] = field(default_factory=dict)
    #: Dependency files produced by forwarded (remote) groups, keyed by
    #: the producing group's action id.
    remote_files: dict[str, dict[str, FileBody]] = field(default_factory=dict)
    cancelled: bool = False
    #: Trace context propagated from the consigning client (may be "").
    trace_id: str = ""
    #: The open ``njs.job`` span covering the whole supervised run.
    job_span: Span = INERT_SPAN
    #: Held jobs stop *delivering* further parts (running batch jobs are
    #: beyond UNICORE's reach — site autonomy); resume releases them.
    held: bool = False
    hold_released: Event | None = None
    #: True when this run was rebuilt from the NJS journal after a crash.
    recovered: bool = False
    #: Supervision processes spawned for this run; interrupted on crash
    #: so a journal replay never races orphaned supervisors.
    processes: list = field(default_factory=list)
    #: Supervisor hook fired after any action status change, so the run
    #: index tracks the rollup without scans.
    on_change: typing.Callable[["JobRun"], None] | None = None
    #: ``detail -> encoded status reply``, cleared by :meth:`notify_change`.
    replies: dict[str, bytes] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        sim: Simulator,
        job_id: str,
        plan: JobPlan,
        user_dn: str,
        workstation_files: typing.Mapping[str, FileBody] | None = None,
    ) -> "JobRun":
        run = cls(
            job_id=job_id,
            root=plan.group,
            plan=plan,
            user_dn=user_dn,
            submitted_at=sim.now,
            workstation_files=dict(workstation_files or {}),
            done_event=sim.event(name=f"job-done:{job_id}"),
            tracer=telemetry_for(sim).tracer,
        )
        run._build_outcomes(sim, run.root)
        return run

    def _build_outcomes(self, sim: Simulator, group: AbstractJobObject) -> None:
        if group.id not in self.outcomes:
            self.outcomes[group.id] = new_outcome(group)
            self.events[group.id] = sim.event(name=f"done:{group.id}")
        group_outcome = typing.cast(AJOOutcome, self.outcomes[group.id])
        for child in group.children:
            child_outcome = new_outcome(child)
            self.outcomes[child.id] = child_outcome
            group_outcome.add_child(child_outcome)
            self.events[child.id] = sim.event(name=f"done:{child.id}")
            if isinstance(child, AbstractJobObject):
                self._build_outcomes(sim, child)

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def root_outcome(self) -> AJOOutcome:
        return typing.cast(AJOOutcome, self.outcomes[self.root.id])

    def encoded_outcome(self) -> bytes:
        """The outcome tree as RETRIEVE_OUTCOME serves and storage keeps it."""
        return encode_outcome(self.root_outcome)

    def status(self) -> ActionStatus:
        """Uniform job status for the JMC."""
        return self.root_outcome.rollup_status()

    def forwarded_usites(self) -> tuple[str, ...]:
        return self.plan.usites

    def status_reply(self, detail: str) -> bytes:
        """The QUERY reply at ``detail``, encoded once per status change."""
        reply = self.replies.get(detail)
        if reply is None:
            view = status_view(self.root, self.outcomes, detail)
            reply = self.replies[detail] = asn1.encode(view.to_value())
        return reply

    def file(self, path: str) -> FileBody | None:
        """The first of the job's Uspaces holding ``path`` has its body."""
        for uspace in self.uspaces.values():
            if uspace.exists(path):
                return uspace.body(path)
        return None

    def finish_action(self, action_id: str, status: ActionStatus, reason: str = "") -> None:
        """Mark an action terminal and wake what waits for it (only in
        tail position: see :meth:`~repro.simkernel.Event.wake`)."""
        outcome = self.outcomes[action_id]
        if not outcome.status.is_terminal:
            outcome.mark(status, reason=reason)
        self.notify_change()
        event = self.events[action_id]
        if not event.triggered:
            event.wake(status)

    def span(self, name: str, **attributes: object) -> Span:
        """Open a child of the job's span; close it with ``tracer.end_span``."""
        return self.tracer.start_span(
            name, self.trace_id, parent=self.job_span, tier="server",
            **attributes,
        )

    def notify_change(self) -> None:
        """Tell the supervisor an action's status (possibly) changed."""
        self.replies.clear()
        if self.on_change is not None:
            self.on_change(self)


def index_outcomes(
    outcome: Outcome, into: dict[str, Outcome]
) -> dict[str, Outcome]:
    """Add the tree under ``outcome`` to a flat ``action id -> outcome``
    index (the shape of :attr:`JobRun.outcomes`)."""
    into[outcome.action_id] = outcome
    if isinstance(outcome, AJOOutcome):
        for child in outcome.children.values():
            index_outcomes(child, into)
    return into


def status_view(
    root: AbstractJobObject, outcomes: typing.Mapping[str, Outcome], detail: str
) -> JobStatusView:
    """A job's status tree at the chosen detail (the QueryService answer)."""

    def render(group: AbstractJobObject) -> JobStatusView:
        rollup = typing.cast(AJOOutcome, outcomes[group.id]).rollup_status()
        children: list[JobStatusView] = []
        if detail in ("groups", "tasks"):
            for child in group.children:
                if isinstance(child, AbstractJobObject):
                    children.append(render(child))
                elif detail == "tasks":
                    outcome = outcomes[child.id]
                    children.append(
                        JobStatusView(
                            id=child.id,
                            name=child.name,
                            status=outcome.status.value,
                            color=outcome.status.display_color,
                        )
                    )
        return JobStatusView(
            id=group.id,
            name=group.name,
            status=rollup.value,
            color=rollup.display_color,
            children=tuple(children),
        )

    return render(root)


def status_replies(
    root: AbstractJobObject, outcomes: typing.Mapping[str, Outcome]
) -> dict[str, bytes]:
    """The QUERY reply at every detail, encoded: what a finished job keeps."""
    return {
        detail: asn1.encode(status_view(root, outcomes, detail).to_value())
        for detail in QueryService.DETAILS
    }
