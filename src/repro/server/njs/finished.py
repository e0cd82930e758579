"""A finished job, served from its outcome row.

:meth:`RunTable.finish <repro.server.njs.runtable.RunTable.finish>`
persists a job's :class:`~repro.storage.outcomes.OutcomeRecord` and puts
a :class:`FinishedRun` over it in the table in place of the live
:class:`~repro.server.njs.jobrun.JobRun`; a restart builds the same
class from a scan of the outcome table.  One class serves every terminal
job, whether it finished in this life of the NJS or an earlier one.

A finished job keeps rows, not object graphs.  Its status is a
:class:`StatusSkeleton`: the task-detail status tree, and the group ids
and forwarded Usites of the job's :class:`~repro.ajo.dag.JobPlan`.  Every
status answer is cut from it, and a dispose tells the peers from it.  A
just-finished run is given the skeleton, cut with its run's plan, the
persisted outcome encoding and the file bodies, and keeps no plan; a
restored one plans its decoded AJO on the first status request.  The AJO and the outcome tree
(:attr:`FinishedRun.root`, :attr:`FinishedRun.outcomes`) are decoded on
each read and kept by nobody.  The outcome blob is read on the first
request for it, and a restored file body is fetched from the blob store
each time a client asks for it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro import asn1
from repro.ajo.dag import JobPlan
from repro.ajo.job import AbstractJobObject
from repro.ajo.outcome import Outcome
from repro.ajo.serialize import decode_ajo, decode_outcome
from repro.ajo.status import ActionStatus
from repro.protocol.views import JobStatusView
from repro.server.njs.jobrun import index_outcomes, status_view
from repro.storage.backend import BlobStore
from repro.storage.journal import JobJournal
from repro.storage.outcomes import OutcomeRecord
from repro.vfs.body import FileBody

__all__ = ["FinishedRun", "StatusSkeleton"]


@dataclass(frozen=True, slots=True)
class StatusSkeleton:
    """What a finished job's status answers are cut from."""

    #: The ``tasks``-detail tree, ``as_of`` unset.
    tree: JobStatusView
    #: The ids of the tree's group nodes; every other node is a task.
    groups: tuple[str, ...]
    #: The Usites the job forwarded groups to.
    usites: tuple[str, ...]

    @classmethod
    def of(
        cls, plan: JobPlan, outcomes: typing.Mapping[str, Outcome]
    ) -> "StatusSkeleton":
        return cls(
            tree=status_view(plan.group, outcomes, "tasks", 0.0),
            groups=plan.groups,
            usites=plan.usites,
        )

    def view(self, detail: str, as_of: float) -> JobStatusView:
        """The tree at ``detail`` (``job``, ``groups`` or ``tasks``),
        as :func:`~repro.server.njs.jobrun.status_view` renders it."""
        groups = self.groups

        def cut(node: JobStatusView) -> JobStatusView:
            children: tuple[JobStatusView, ...] = ()
            if detail == "tasks":
                children = tuple(
                    cut(child) if child.id in groups else child
                    for child in node.children
                )
            elif detail == "groups":
                children = tuple(
                    cut(child) for child in node.children if child.id in groups
                )
            return JobStatusView(
                node.id, node.name, node.status, node.color, children,
                as_of=as_of,
            )

        return cut(self.tree)


class FinishedRun:
    """A terminal job: its outcome record, and what serving it needs."""

    __slots__ = ("record", "job_id", "user_dn", "name", "submitted_at", "recovered",
                 "_status", "_journal", "_blobs", "_usite_name", "_skeleton",
                 "_outcome_bytes", "_files")

    def __init__(
        self,
        record: OutcomeRecord,
        journal: JobJournal,
        blobs: BlobStore,
        usite_name: str,
        *,
        skeleton: StatusSkeleton | None = None,
        outcome_bytes: bytes | None = None,
        files: dict[str, FileBody] | None = None,
    ) -> None:
        self.record = record
        self.job_id = record.job_id
        self.user_dn = record.user_dn
        self.name = record.name
        self.submitted_at = record.submitted_at
        self.recovered = record.recovered
        self._status = ActionStatus(record.status)
        self._journal = journal
        self._blobs = blobs
        self._usite_name = usite_name
        self._skeleton = skeleton
        self._outcome_bytes = outcome_bytes
        self._files = files

    @property
    def root(self) -> AbstractJobObject:
        """The AJO the job was consigned as, read and decoded anew."""
        return decode_ajo(self._journal.ajo_bytes(self.job_id))

    @property
    def outcomes(self) -> dict[str, Outcome]:
        """Action id -> outcome, indexed from a freshly decoded tree."""
        return index_outcomes(decode_outcome(self.encoded_outcome()), {})

    def skeleton(self) -> StatusSkeleton:
        """The status skeleton, built from the decoded trees the first
        time a restored run is asked."""
        if self._skeleton is None:
            plan = JobPlan.of(self.root, self._usite_name)
            self._skeleton = StatusSkeleton.of(plan, self.outcomes)
        return self._skeleton

    def status_view(self, detail: str, as_of: float) -> JobStatusView:
        return self.skeleton().view(detail, as_of)

    def status_reply(self, detail: str) -> bytes:
        return asn1.encode(self.status_view(detail, 0.0).to_value())

    def forwarded_usites(self) -> tuple[str, ...]:
        """The Usites the job forwarded groups to.  A restored run that
        was never asked for its status decodes its AJO for them, and
        builds no skeleton."""
        if self._skeleton is not None:
            return self._skeleton.usites
        return JobPlan.of(self.root, self._usite_name).usites

    def encoded_outcome(self) -> bytes:
        """The persisted encoding, served verbatim: no decode, no re-encode."""
        if self._outcome_bytes is None:
            self._outcome_bytes = self._blobs.get(self.record.outcome_digest)
        return self._outcome_bytes

    def status(self) -> ActionStatus:
        return self._status

    def file(self, path: str) -> FileBody | None:
        """The job's Uspace file ``path``, or None if it produced none."""
        if self._files is not None:
            return self._files.get(path)
        digest = self.record.files.get(path)
        return None if digest is None else self._blobs.body(digest)
