"""Typed read-model views crossing the query/list/capacity protocol edge.

:func:`~repro.server.njs.jobrun.status_view`,
:meth:`~repro.server.njs.supervisor.NetworkJobSupervisor.list_jobs_delta`
and :meth:`~repro.server.njs.supervisor.NetworkJobSupervisor.capacity`
build these frozen dataclasses; the gateway encodes them at the protocol
edge (a status tree the run encodes, and keeps until its next change:
``status_reply``) and the JMC (or the federation broker, for a
capacity report) decodes the reply straight back into the same type.

On the wire a view is one :mod:`repro.asn1` SEQUENCE of its fields in
declaration order, with no keys:

* status node: ``[id, name, status, color, [children…]]``;
* listing: ``[job_id, name, status, submitted_at, recovered]``;
* delta: ``[seq, epoch, full, [listings…], [removed…]]``;
* Vsite capacity: ``[usite, vsite, sent_at, total_cpus, free_cpus,
  queued_jobs, running_jobs, backlog_cpu_s, speed_factor, page]``, the
  page as its :meth:`~repro.resources.page.ResourcePage.to_asn1` bytes;
* capacity report: ``[usite, sent_at, [vsites…], [reclaimable…],
  [terminal…]]``.

The CONSIGN, CONTROL and DISPOSE acknowledgements are one UTF8String
each (the job id, the verb, the job id), read by :func:`decode_ack`.
:meth:`from_value` checks the arity and the type of every field and
refuses anything else with
:class:`~repro.ajo.errors.SerializationError` (a page that does not
decode, with :class:`~repro.resources.errors.ResourcePageError`).

``stale`` / ``as_of`` never cross the wire: a client that cannot reach
the gateway may re-serve its last good view, marked stale so the
user-facing layer can color it accordingly.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace

from repro import asn1
from repro.ajo.errors import SerializationError
from repro.resources.page import ResourcePage

__all__ = [
    "CapacityView",
    "JobListing",
    "JobListingDelta",
    "JobStatusView",
    "VsiteCapacity",
    "decode_ack",
]


def decode_ack(payload: bytes) -> str:
    """The one string an acknowledgement reply carries."""
    text = asn1.decode(payload, SerializationError)
    if not isinstance(text, str):
        raise SerializationError(
            f"an acknowledgement is a string, got {text!r:.80}"
        )
    return text


def _fields(value: object, kinds: list[type], what: str) -> list[typing.Any]:
    """``value`` as a sequence of exactly ``kinds``, item by item."""
    if type(value) is list and list(map(type, value)) == kinds:
        return value
    raise SerializationError(
        f"a {what} is a sequence of "
        f"({', '.join(kind.__name__ for kind in kinds)}), got {value!r:.80}"
    )


#: The field types of each view's wire form, in declaration order.
_NODE = [str, str, str, str, list]
_LISTING = [str, str, str, float, bool]
_DELTA = [int, int, bool, list, list]
_VSITE = [str, str, float, int, int, int, int, float, float, bytes]
_CAPACITY = [str, float, list, list, list]


def _items(value: list[typing.Any], kind: type, what: str) -> list[typing.Any]:
    """``value`` when each of its items is a ``kind``."""
    for item in value:
        if type(item) is not kind:
            raise SerializationError(f"{what} must be {kind.__name__}s")
    return value


@dataclass(frozen=True, slots=True)
class JobStatusView:
    """One node of the status tree the JMC displays.

    The root node describes the job; ``children`` nest job groups and
    (at task detail) tasks, mirroring the AJO structure.
    """

    id: str
    name: str
    status: str
    color: str
    children: tuple["JobStatusView", ...] = ()
    #: True when this view was served from a client-side cache because
    #: the gateway was unreachable (graceful degradation).
    stale: bool = False
    #: Simulated time the view was assembled (0.0 = not recorded).
    as_of: float = 0.0

    @property
    def is_terminal(self) -> bool:
        return self.status in ("successful", "failed", "killed", "not_attempted")

    def to_value(self) -> list[typing.Any]:
        """The wire form: ``[id, name, status, color, [children…]]``."""
        return [
            self.id, self.name, self.status, self.color,
            [child.to_value() for child in self.children],
        ]

    @classmethod
    def from_value(cls, value: object) -> "JobStatusView":
        id_, name, status, color, children = _fields(
            value, _NODE, "status node"
        )
        return cls(
            id_, name, status, color,
            tuple(cls.from_value(child) for child in children),
        )

    def marked_stale(self, as_of: float) -> "JobStatusView":
        """A copy flagged as served-from-cache at simulated time ``as_of``."""
        return replace(self, stale=True, as_of=as_of)


@dataclass(frozen=True, slots=True)
class JobListing:
    """One row of the user's job list."""

    job_id: str
    name: str
    status: str
    submitted_at: float = 0.0
    #: Set on jobs re-supervised from the journal after an NJS crash.
    recovered: bool = False

    def to_value(self) -> list[typing.Any]:
        """The wire form: ``[job_id, name, status, submitted_at, recovered]``."""
        return [
            self.job_id, self.name, self.status,
            float(self.submitted_at), self.recovered,
        ]

    @classmethod
    def from_value(cls, value: object) -> "JobListing":
        return cls(*_fields(value, _LISTING, "listing"))


@dataclass(frozen=True, slots=True)
class JobListingDelta:
    """The LIST service's versioned answer: changes since a cursor.

    ``seq`` is the version of the server's job index after this answer;
    passing it back as ``since_seq`` on the next LIST yields only what
    changed in between.  ``epoch`` identifies one life of the index
    — after an NJS crash it restarts in a new epoch, the server
    answers with ``full=True``, and any old cursor must be discarded.
    """

    seq: int
    epoch: int
    #: True when ``listings`` is the complete list (fresh client cursor,
    #: epoch mismatch, or a server that compacted past the cursor).
    full: bool
    listings: tuple[JobListing, ...] = ()
    #: Job ids removed (disposed) since the cursor; empty on full answers.
    removed: tuple[str, ...] = ()

    def to_value(self) -> list[typing.Any]:
        """The wire form: ``[seq, epoch, full, [listings…], [removed…]]``."""
        return [
            self.seq, self.epoch, self.full,
            [item.to_value() for item in self.listings], list(self.removed),
        ]

    @classmethod
    def from_value(cls, value: object) -> "JobListingDelta":
        seq, epoch, full, listings, removed = _fields(
            value, _DELTA, "listing delta"
        )
        return cls(
            seq, epoch, full,
            tuple(JobListing.from_value(item) for item in listings),
            tuple(_items(removed, str, "removed job ids")),
        )


@dataclass(frozen=True, slots=True)
class VsiteCapacity:
    """One Vsite's state as its NJS reported it at ``sent_at``."""

    usite: str
    vsite: str
    sent_at: float
    total_cpus: int
    free_cpus: int
    queued_jobs: int
    running_jobs: int
    #: Sum of cpus x remaining time over queued and running jobs: the
    #: same backlog heuristic the one-shot placement broker uses.
    backlog_cpu_s: float
    speed_factor: float
    #: The published page, so a broker runs the identical feasibility
    #: check the analysis tier applies at consign time.
    page: ResourcePage

    def wait_estimate_s(self, bound_since_cpu_s: float = 0.0) -> float:
        """Backlog over capacity; ``bound_since_cpu_s`` is work a broker
        itself sent here after this report was made (its overlay)."""
        return (self.backlog_cpu_s + bound_since_cpu_s) / max(1, self.total_cpus)

    def to_value(self) -> list[typing.Any]:
        """The wire form: the fields in order, the page as its bytes."""
        return [
            self.usite, self.vsite, float(self.sent_at),
            int(self.total_cpus), int(self.free_cpus),
            int(self.queued_jobs), int(self.running_jobs),
            float(self.backlog_cpu_s), float(self.speed_factor),
            self.page.to_asn1(),
        ]

    @classmethod
    def from_value(cls, value: object) -> "VsiteCapacity":
        *counts, page = _fields(value, _VSITE, "Vsite capacity")
        return cls(*counts, page=ResourcePage.from_asn1(page))


@dataclass(frozen=True, slots=True)
class CapacityView:
    """The CAPACITY verb's answer: what one Usite says about its load.

    ``reclaimable`` lists the jobs a RECLAIM would still cancel (every
    batch job they submitted is queued, nothing started); ``terminal``
    the jobs that reached an end, so a broker retires its entries and
    frees their fair-share slots without asking about each job.
    """

    usite: str
    sent_at: float
    vsites: tuple[VsiteCapacity, ...]
    reclaimable: tuple[str, ...] = ()
    terminal: tuple[str, ...] = ()

    def to_value(self) -> list[typing.Any]:
        """The wire form: ``[usite, sent_at, [vsites…], [reclaimable…],
        [terminal…]]``."""
        return [
            self.usite, float(self.sent_at),
            [vsite.to_value() for vsite in self.vsites],
            list(self.reclaimable), list(self.terminal),
        ]

    @classmethod
    def from_value(cls, value: object) -> "CapacityView":
        usite, sent_at, vsites, reclaimable, terminal = _fields(
            value, _CAPACITY, "capacity report"
        )
        return cls(
            usite, sent_at,
            tuple(VsiteCapacity.from_value(item) for item in vsites),
            tuple(_items(reclaimable, str, "reclaimable job ids")),
            tuple(_items(terminal, str, "terminal job ids")),
        )
