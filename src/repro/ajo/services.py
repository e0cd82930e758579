"""Abstract services: job monitoring and control requests.

Figure 3's right branch: ControlService, ListService, QueryService — "the
abstract service for job monitoring" (section 5.3).  Services are
non-recursive actions the JMC sends to an NJS about previously consigned
jobs.
"""

from __future__ import annotations

import typing

from repro.ajo.actions import AbstractAction
from repro.ajo.errors import ValidationError

__all__ = ["AbstractService", "ControlService", "ControlVerb", "ListService", "QueryService"]


class AbstractService(AbstractAction):
    """Base class for monitoring/control services."""

    type_tag = "service"


class ControlVerb:
    """What a ControlService asks the NJS to do to a job."""

    CANCEL = "cancel"
    HOLD = "hold"
    RESUME = "resume"
    #: Cancel only if nothing has started yet (else the NJS refuses), so
    #: the job can be placed elsewhere: a broker's work stealing.
    RECLAIM = "reclaim"

    ALL = (CANCEL, HOLD, RESUME, RECLAIM)


class ControlService(AbstractService):
    """Control a consigned job (cancel / hold / resume / reclaim)."""

    type_tag = "control"

    def __init__(
        self,
        name: str,
        target_job_id: str,
        verb: str = ControlVerb.CANCEL,
        action_id: str | None = None,
    ) -> None:
        super().__init__(name, action_id=action_id)
        if not target_job_id:
            raise ValidationError("ControlService requires a target job id")
        if verb not in ControlVerb.ALL:
            raise ValidationError(f"unknown control verb {verb!r}")
        self.target_job_id = target_job_id
        self.verb = verb

    def to_payload(self) -> dict[str, typing.Any]:
        payload = super().to_payload()
        payload["target_job_id"] = self.target_job_id
        payload["verb"] = self.verb
        return payload


class ListService(AbstractService):
    """List the requesting user's UNICORE jobs known to this NJS.

    ``since_seq``/``epoch`` carry the client's delta cursor: the server
    answers with only the listings that changed after ``since_seq``
    (within the same index ``epoch``).  The defaults (-1) request a
    full listing; either way the answer is a
    :class:`~repro.protocol.views.JobListingDelta`.
    """

    type_tag = "list"

    def __init__(
        self,
        name: str,
        since_seq: int = -1,
        epoch: int = -1,
        action_id: str | None = None,
    ) -> None:
        super().__init__(name, action_id=action_id)
        self.since_seq = int(since_seq)
        self.epoch = int(epoch)

    def to_payload(self) -> dict[str, typing.Any]:
        payload = super().to_payload()
        if self.since_seq >= 0:
            payload["since_seq"] = self.since_seq
            payload["epoch"] = self.epoch
        return payload


class QueryService(AbstractService):
    """Query status and outcomes of one consigned job.

    ``detail`` selects the JMC's "chosen level of detail" (section 5.7):
    job groups only, or down to individual tasks.
    """

    type_tag = "query"

    DETAIL_JOB = "job"
    DETAIL_GROUPS = "groups"
    DETAIL_TASKS = "tasks"
    DETAILS = (DETAIL_JOB, DETAIL_GROUPS, DETAIL_TASKS)

    def __init__(
        self,
        name: str,
        target_job_id: str,
        detail: str = DETAIL_TASKS,
        subscribe: bool = False,
        hold_s: float = 0.0,
        action_id: str | None = None,
    ) -> None:
        super().__init__(name, action_id=action_id)
        if not target_job_id:
            raise ValidationError("QueryService requires a target job id")
        if detail not in self.DETAILS:
            raise ValidationError(f"unknown detail level {detail!r}")
        if hold_s < 0:
            raise ValidationError("QueryService hold_s must be >= 0")
        self.target_job_id = target_job_id
        self.detail = detail
        #: Completion-event subscription: the server parks the request
        #: until the job reaches a terminal state (or ``hold_s`` elapses)
        #: and only then answers with the status tree — one interaction
        #: replaces a poll train.  Servers without subscription support
        #: simply answer immediately (the poll semantics), so the field
        #: degrades cleanly.
        self.subscribe = bool(subscribe)
        self.hold_s = float(hold_s)

    def to_payload(self) -> dict[str, typing.Any]:
        payload = super().to_payload()
        payload["target_job_id"] = self.target_job_id
        payload["detail"] = self.detail
        if self.subscribe:
            payload["subscribe"] = True
            payload["hold_s"] = self.hold_s
        return payload
