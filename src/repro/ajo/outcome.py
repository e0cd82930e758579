"""Outcomes: status plus results of executed abstract actions.

Paper section 5.3: "A Java class Outcome is defined to contain the status
of an abstract action and the results of its execution.  Outcome contains
a subclass for each subclass of AbstractAction which are associated to
give the results of an abstract action."

:func:`outcome_class_for` implements that association: it maps an action
type to its outcome type.  :class:`AJOOutcome` aggregates the outcomes of
a whole job group and rolls up a combined status for the JMC display.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.ajo.actions import AbstractAction
from repro.ajo.job import AbstractJobObject
from repro.ajo.services import AbstractService
from repro.ajo.status import ActionStatus
from repro.ajo.tasks import AbstractTaskObject, FileTask

__all__ = [
    "Outcome",
    "TaskOutcome",
    "FileOutcome",
    "ServiceOutcome",
    "AJOOutcome",
    "outcome_class_for",
]


@dataclass(slots=True)
class Outcome:
    """Status and results of one abstract action."""

    action_id: str
    status: ActionStatus = ActionStatus.PENDING
    #: Human-readable explanation, mostly for failures.
    reason: str = ""
    #: Simulated timestamps (NaN until set).
    submitted_at: float = float("nan")
    completed_at: float = float("nan")
    #: The group whose tally counts this outcome (see :class:`AJOOutcome`).
    _parent: "AJOOutcome | None" = field(default=None, init=False, repr=False, compare=False)

    kind: typing.ClassVar[str] = "outcome"

    def mark(self, status: ActionStatus, reason: str = "") -> None:
        """Transition to ``status``; terminal states are sticky."""
        if self.status.is_terminal:
            raise ValueError(
                f"outcome of {self.action_id} already terminal "
                f"({self.status.value}); cannot become {status.value}"
            )
        before = _progress(self)
        self.status = status
        if reason:
            self.reason = reason
        _retally(self._parent, before, _progress(self))

    def to_payload(self) -> dict[str, typing.Any]:
        return {
            "action_id": self.action_id,
            "status": self.status.value,
            "reason": self.reason,
            "submitted_at": self.submitted_at,
            "completed_at": self.completed_at,
        }

    @classmethod
    def _apply_payload(cls, out: "Outcome", payload: dict[str, typing.Any]) -> None:
        out.status = ActionStatus(payload["status"])
        out.reason = payload["reason"]
        out.submitted_at = payload["submitted_at"]
        out.completed_at = payload["completed_at"]

    @classmethod
    def from_payload(cls, payload: dict[str, typing.Any]) -> "Outcome":
        out = cls(action_id=payload["action_id"])
        cls._apply_payload(out, payload)
        return out


@dataclass(slots=True)
class TaskOutcome(Outcome):
    """Outcome of an execute task: exit code plus collected output.

    The NJS "collects the standard output and error files from the batch
    jobs" (section 5.5); they are carried here for the JMC to list/save.
    """

    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""

    kind: typing.ClassVar[str] = "task"

    def to_payload(self) -> dict[str, typing.Any]:
        payload = Outcome.to_payload(self)
        payload.update(exit_code=self.exit_code, stdout=self.stdout, stderr=self.stderr)
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, typing.Any]) -> "TaskOutcome":
        out = cls(action_id=payload["action_id"])
        cls._apply_payload(out, payload)
        out.exit_code = payload["exit_code"]
        out.stdout = payload["stdout"]
        out.stderr = payload["stderr"]
        return out


@dataclass(slots=True)
class FileOutcome(Outcome):
    """Outcome of a file task: how many bytes moved, where."""

    bytes_moved: int = 0
    effective_bandwidth: float = 0.0

    kind: typing.ClassVar[str] = "file"

    def to_payload(self) -> dict[str, typing.Any]:
        payload = Outcome.to_payload(self)
        payload.update(
            bytes_moved=self.bytes_moved,
            effective_bandwidth=self.effective_bandwidth,
        )
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, typing.Any]) -> "FileOutcome":
        out = cls(action_id=payload["action_id"])
        cls._apply_payload(out, payload)
        out.bytes_moved = payload["bytes_moved"]
        out.effective_bandwidth = payload["effective_bandwidth"]
        return out


@dataclass(slots=True)
class ServiceOutcome(Outcome):
    """Outcome of a monitoring/control service: the answer payload."""

    #: JSON-able answer (job listing, status tree, acknowledgement...).
    answer: object = None

    kind: typing.ClassVar[str] = "service"

    def to_payload(self) -> dict[str, typing.Any]:
        payload = Outcome.to_payload(self)
        payload["answer"] = self.answer
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, typing.Any]) -> "ServiceOutcome":
        out = cls(action_id=payload["action_id"])
        cls._apply_payload(out, payload)
        out.answer = payload["answer"]
        return out


@dataclass(slots=True)
class AJOOutcome(Outcome):
    """Aggregated outcome of a job group: children keyed by action id,
    and a tally of their progress states that :meth:`add_child` and each
    child's :meth:`~Outcome.mark` keep, so the roll-up is read, not
    recomputed."""

    children: dict[str, Outcome] = field(default_factory=dict)
    #: Progress state -> how many children are in it.
    _tally: dict[ActionStatus, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    kind: typing.ClassVar[str] = "ajo"

    def add_child(self, outcome: Outcome) -> None:
        """Add a child, or replace the one with its id (a forwarded
        group's returned tree takes the place of its placeholder)."""
        before = _progress(self)
        old = self.children.get(outcome.action_id)
        if old is not None:
            old._parent = None
            self._tally[_progress(old)] -= 1
        self.children[outcome.action_id] = outcome
        outcome._parent = self
        status = _progress(outcome)
        self._tally[status] = self._tally.get(status, 0) + 1
        _retally(self._parent, before, _progress(self))

    def child(self, action_id: str) -> Outcome:
        return self.children[action_id]

    def find(self, action_id: str) -> Outcome:
        """Locate an outcome anywhere in the tree (self included).

        Raises ``KeyError`` with the searched id if absent.
        """
        if self.action_id == action_id:
            return self
        for child in self.children.values():
            if child.action_id == action_id:
                return child
            if isinstance(child, AJOOutcome):
                try:
                    return child.find(action_id)
                except KeyError:
                    continue
        raise KeyError(action_id)

    def rollup_status(self) -> ActionStatus:
        """Combined status for the JMC's job-group icon.

        A group reports a *terminal* verdict only once every child is
        terminal — a failure in one branch does not end a job whose other
        branches are still running (their results are still coming).
        While in flight: RUNNING if anything runs, else QUEUED if
        anything is queued, else PENDING.  Once all children are
        terminal: FAILED beats KILLED beats all-NOT_ATTEMPTED beats
        SUCCESSFUL.  A group whose own status is already FAILED/KILLED
        (e.g. rejected wholesale by a remote NJS) reports that regardless
        of its never-started children.

        A sub-group in flight contributes its own roll-up, so a job whose
        work sits in a local sub-group reads as that work does.  A
        forwarded group in flight still reads PENDING: the parent site
        sees no remote progress until the group's result comes home.
        """
        if self.status in (ActionStatus.FAILED, ActionStatus.KILLED) or not self.children:
            return self.status
        # The children's contributions are the kept tally: no walk.
        count = self._tally.get
        for status in _ROLLUP_ORDER:
            if count(status):
                return status
        if count(ActionStatus.NOT_ATTEMPTED) and not count(ActionStatus.SUCCESSFUL):
            return ActionStatus.NOT_ATTEMPTED
        return ActionStatus.SUCCESSFUL

    def to_payload(self) -> dict[str, typing.Any]:
        payload = Outcome.to_payload(self)
        payload["children"] = {
            cid: {"kind": child.kind, "data": child.to_payload()}
            for cid, child in sorted(self.children.items())
        }
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, typing.Any]) -> "AJOOutcome":
        out = cls(action_id=payload["action_id"])
        cls._apply_payload(out, payload)
        for cid, wrapped in payload["children"].items():
            child_cls = _OUTCOME_KINDS[wrapped["kind"]]
            out.add_child(child_cls.from_payload(wrapped["data"]))
        return out


def _progress(child: Outcome) -> ActionStatus:
    """What ``child`` adds to its group's roll-up.  A sub-group in flight
    adds its own, unless all its children ended: it is not over until
    it is marked so."""
    if isinstance(child, AJOOutcome) and not child.status.is_terminal:
        rolled = child.rollup_status()
        if not rolled.is_terminal:
            return rolled
    return child.status


#: A group reads as the first of these any child is in.
_ROLLUP_ORDER = (
    ActionStatus.RUNNING, ActionStatus.QUEUED, ActionStatus.PENDING,
    ActionStatus.FAILED, ActionStatus.KILLED,
)


def _retally(group: AJOOutcome | None, before: ActionStatus, after: ActionStatus) -> None:
    """Move a child of ``group`` in the tally, from progress ``before`` to
    ``after``, and up while that changes a group's own progress."""
    while group is not None and before is not after:
        was = _progress(group)
        group._tally[before] -= 1
        group._tally[after] = group._tally.get(after, 0) + 1
        before, after = was, _progress(group)
        group = group._parent


_OUTCOME_KINDS: dict[str, type[Outcome]] = {
    cls.kind: cls
    for cls in (Outcome, TaskOutcome, FileOutcome, ServiceOutcome, AJOOutcome)
}


def outcome_class_for(action: AbstractAction) -> type[Outcome]:
    """The Outcome subclass associated with ``action``'s type (section 5.3)."""
    if isinstance(action, AbstractJobObject):
        return AJOOutcome
    if isinstance(action, FileTask):
        return FileOutcome
    if isinstance(action, AbstractTaskObject):
        return TaskOutcome
    if isinstance(action, AbstractService):
        return ServiceOutcome
    return Outcome


def new_outcome(action: AbstractAction) -> Outcome:
    """A fresh PENDING outcome of the right subclass for ``action``."""
    return outcome_class_for(action)(action_id=action.id)
