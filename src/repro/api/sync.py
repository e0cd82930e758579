"""The blocking facade: one session object for the whole user tier.

The paper's client tier is three applets (browser, JPA, JMC) that each
expose generator methods to be driven inside a simulator process.  That
is faithful to section 4.1 but awkward as a *library* surface: every
caller had to spell the connect handshake, hold three objects, and wrap
each call in ``sim.process``/``sim.run``.  :class:`GridSession` folds
the tier into four verbs —

    >>> session = GridSession(grid, "Alice Debye", "FZJ")
    >>> handle = session.submit(job)          # -> JobHandle
    >>> session.status(handle)                # -> JobStatusView
    >>> session.wait(handle)                  # -> terminal JobStatusView
    >>> session.outcome(handle)               # -> AJOOutcome tree

Every verb drives the matching plan generator of
:class:`~repro.api._core.SessionCore` to completion with
``sim.run(until=process)`` — which is why this facade only works on the
deterministic simkernel transport.  Pointing it at a realtime backend
raises :class:`~repro.net.errors.TransportMismatch` (``"aio"`` sends
need a running event loop); use
:class:`~repro.api.aio.AsyncGridSession` there instead.  Both facades
share the plan bodies, so their behavior is identical by construction.
"""

from __future__ import annotations

import typing

from repro.api._core import JobHandle, SessionCore
from repro.client.jpa import JobBuilder
from repro.faults.breaker import CircuitBreaker
from repro.net.errors import TransportMismatch
from repro.net.transport import TransportSpec
from repro.protocol.views import JobListing, JobStatusView

if typing.TYPE_CHECKING:
    from repro.grid.build import Grid, GridUser

__all__ = ["GridSession", "JobHandle"]


class GridSession(SessionCore):
    """A user's blocking connection to the grid, with resilience built in.

    Construction runs the full browser handshake (mutual SSL, applet
    download and signature check, resource-page fetch) to the named home
    Usite, then arms a circuit breaker on the protocol client.  All
    methods are *blocking* from the caller's point of view: each drives
    the underlying plan generator to completion inside the simulator,
    exactly like :meth:`repro.grid.build.Grid.connect_user`.
    """

    def __init__(
        self,
        grid: "Grid",
        user: "GridUser | str",
        usite: str,
        breaker: CircuitBreaker | None = None,
        failover: bool = True,
    ) -> None:
        if getattr(grid.network, "realtime", False):
            raise TransportMismatch(
                f"blocking GridSession cannot drive the realtime "
                f"{grid.network.kind!r} transport — its sends need a running "
                f"event loop; use repro.api.aio.AsyncGridSession"
            )
        super().__init__(grid, user, usite, breaker=breaker, failover=failover)
        self._run(self.setup_plan(), name="connect")

    @classmethod
    def connect(
        cls,
        grid: "Grid",
        user: "GridUser | str",
        usite: str,
        transport: "TransportSpec | str | None" = None,
        **kw,
    ) -> "GridSession":
        """Open a session, checking the grid runs the expected backend.

        ``transport`` names the backend the caller wrote their workload
        against; passing one that differs from what the grid was built
        with raises :class:`~repro.net.errors.TransportMismatch` rather
        than silently running on the wrong fabric.
        """
        if transport is not None:
            spec = TransportSpec.parse(transport)
            if spec.kind != grid.network.kind:
                raise TransportMismatch(
                    f"session requested the {spec.kind!r} transport but the "
                    f"grid was built with {grid.network.kind!r}; pass "
                    f"transport={spec.kind!r} to build_grid"
                )
        return cls(grid, user, usite, **kw)

    # -- plumbing ------------------------------------------------------------
    def _run(self, gen: typing.Generator, name: str):
        """Drive one plan generator to completion (blocking pattern)."""
        proc = self.sim.process(gen, name=f"api:{name}:{self.user.name}")
        return self.sim.run(until=proc)

    # -- authoring -----------------------------------------------------------
    def new_job(
        self,
        name: str,
        vsite: str | None = None,
        usite: str | None = None,
        account_group: str = "",
    ) -> JobBuilder:
        """A builder bound for ``vsite`` (default: the home Usite's first)."""
        return self._run(
            self.new_job_plan(name, vsite, usite, account_group),
            name=f"new_job:{name}",
        )

    # -- the four verbs ------------------------------------------------------
    def submit(
        self, job: JobBuilder, workstation=None, broker: bool = False
    ) -> JobHandle:
        """Consign ``job``; see :meth:`SessionCore.submit_plan`."""
        return self._run(
            self.submit_plan(job, workstation, broker),
            name=f"submit:{job.ajo.name}",
        )

    def status(
        self, handle: "JobHandle | str", allow_stale: bool = True
    ) -> JobStatusView:
        """The job's status tree; a cached view marked stale during outages."""
        return self._run(self.status_plan(handle, allow_stale), name="status")

    def wait(
        self, handle: "JobHandle | str", max_polls: int = 10_000
    ) -> JobStatusView:
        """Block until the job is terminal; see :meth:`SessionCore.wait_plan`."""
        return self._run(self.wait_plan(handle, max_polls), name="wait")

    def outcome(self, handle: "JobHandle | str"):
        """The full Outcome tree (stdout/stderr included) of a finished job."""
        return self._run(self.outcome_plan(handle), name="outcome")

    def cancel(self, handle: "JobHandle | str") -> dict:
        """Abort the job wherever its parts currently are."""
        return self._run(self.cancel_plan(handle), name="cancel")

    # -- the rest of the JMC, facaded for completeness -----------------------
    def hold(self, handle: "JobHandle | str") -> dict:
        return self._run(self.hold_plan(handle), name="hold")

    def resume(self, handle: "JobHandle | str") -> dict:
        return self._run(self.resume_plan(handle), name="resume")

    def list_jobs(self, usite: str | None = None) -> list[JobListing]:
        """The user's jobs at one Usite (default: the home site)."""
        return self._run(self.list_jobs_plan(usite), name="list")

    def fetch_file(
        self, handle: "JobHandle | str", path: str, save_as: str | None = None
    ) -> bytes:
        """Bring one Uspace file back to the user's workstation."""
        return self._run(self.fetch_file_plan(handle, path, save_as), name="fetch")

    def dispose(self, handle: "JobHandle | str") -> dict:
        return self._run(self.dispose_plan(handle), name="dispose")

    # -- simulation helper ---------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Let simulated time pass (jobs run; nothing blocks on it)."""
        self.sim.run(until=self.sim.now + seconds)

    # -- checkpointing --------------------------------------------------------
    def snapshot(self):
        """Checkpoint the whole grid (see :meth:`repro.grid.Grid.snapshot`).

        Take it at a quiescent point — after :meth:`wait` /
        :meth:`advance` returned with no work pending — if the restored
        run must continue byte-identically.
        """
        return self.grid.snapshot()
