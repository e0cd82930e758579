"""The Codine-based internal job-control layer of the NJS.

Paper section 5.1: one of the basic implementation decisions was "the
use of the resource management system Codine provided by Genias Software
GmbH as part of NJS".  Section 5.5: the NJS must "transform the abstract
job into a Codine internal format" before the per-destination
translation and submission.

This layer is that internal format: every incarnated batch job is first
registered as a Codine-format record (a ``#$`` script plus Codine state
``qw``/``r``/``d``/``Eqw``); state transitions mirror the vendor batch
job's lifecycle.  It gives the NJS a uniform internal ledger across all
destination dialects — which is exactly what the real NJS used Codine
for — and gives operators a single place to inspect everything the NJS
has in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.batch.base import BatchJobSpec, BatchState
from repro.batch.dialects import CodineDialect

__all__ = ["CodineRecord", "CodineJobControl"]

_DIALECT = CodineDialect()

#: Vendor state -> Codine state.
_STATE_MAP = {
    BatchState.QUEUED: "qw",
    BatchState.RUNNING: "r",
    BatchState.DONE: "d",
    BatchState.FAILED: "Eqw",
    BatchState.CANCELLED: "Eqw",
}


@dataclass(slots=True)
class CodineRecord:
    """One job in the NJS's internal (Codine) format."""

    codine_id: int
    unicore_job_id: str
    action_id: str
    vsite: str
    #: The job re-rendered in Codine's own script format.
    internal_script: str
    state: str = "qw"
    vendor_job_id: str = ""
    history: list[tuple[float, str]] = field(default_factory=list)


class CodineJobControl:
    """The NJS-internal ledger of everything submitted anywhere."""

    def __init__(self) -> None:
        self._records: dict[int, CodineRecord] = {}
        self._by_action: dict[str, int] = {}
        self._ids = count(1)

    def register(
        self,
        unicore_job_id: str,
        action_id: str,
        vsite: str,
        spec: BatchJobSpec,
        now: float,
    ) -> CodineRecord:
        """Transform an incarnated job into the Codine internal format."""
        internal = _DIALECT.render_script(
            spec.name, spec.queue, spec.resources,
            [f"# destination: {vsite}", f"# owner: {spec.owner}"],
        )
        record = CodineRecord(
            codine_id=next(self._ids),
            unicore_job_id=unicore_job_id,
            action_id=action_id,
            vsite=vsite,
            internal_script=internal,
        )
        record.history.append((now, "qw"))
        self._records[record.codine_id] = record
        self._by_action[action_id] = record.codine_id
        return record

    def bind_vendor_job(self, action_id: str, vendor_job_id: str) -> None:
        """Record the destination system's own id for the job."""
        self.for_action(action_id).vendor_job_id = vendor_job_id

    def transition(self, action_id: str, vendor_state: BatchState, now: float) -> str:
        """Mirror a vendor-state change into the Codine state machine."""
        record = self.for_action(action_id)
        new_state = _STATE_MAP[vendor_state]
        if new_state != record.state:
            record.state = new_state
            record.history.append((now, new_state))
        return new_state

    def for_action(self, action_id: str) -> CodineRecord:
        try:
            return self._records[self._by_action[action_id]]
        except KeyError:
            raise KeyError(
                f"no Codine record for action {action_id!r}"
            ) from None

    def forget(self, unicore_job_id: str) -> None:
        """Drop a disposed job's records; the ledger holds what the NJS
        still answers for, not everything it ever incarnated."""
        for record in [
            r for r in self._records.values()
            if r.unicore_job_id == unicore_job_id
        ]:
            del self._records[record.codine_id]
            # A replayed job registered its actions again under new ids.
            self._by_action.pop(record.action_id, None)

    def qstat(self) -> list[tuple[int, str, str, str]]:
        """The classic queue listing: (id, name-ish, state, vsite)."""
        return [
            (r.codine_id, r.unicore_job_id, r.state, r.vsite)
            for r in self._records.values()
        ]

    def in_flight(self) -> int:
        """Jobs not yet in a terminal Codine state."""
        return sum(1 for r in self._records.values() if r.state in ("qw", "r"))

    def __len__(self) -> int:
        return len(self._records)
