"""The asyncio facade: awaitable sessions over either transport.

:class:`AsyncGridSession` exposes the same verbs as the blocking
:class:`~repro.api.sync.GridSession` — submit/status/wait/outcome plus
the full JMC surface — as coroutines, driving the very same
:class:`~repro.api._core.SessionCore` plan generators.  On the
simkernel backend each ``await`` runs the plan deterministically to
completion; on the ``"aio"`` backend the plan is handed to the
transport pump, so many sessions progress concurrently while their WAN
messages travel over real TCP sockets::

    grid = build_grid({"FZJ": ["FZJ-T3E"]}, transport="aio")
    grid.add_user("Clara Grid", logins={"FZJ": "clara"})

    async def main():
        async with await grid.network.start():
            session = await AsyncGridSession.connect(grid, "Clara Grid", "FZJ")
            job = await session.new_job("hello")
            ...
            handle = await session.submit(job)        # -> AsyncJobHandle
            final = await handle.wait()
            print((await handle.outcome()).stdout)

:meth:`AsyncGridSession.submit` returns an :class:`AsyncJobHandle`,
which carries the plain :class:`~repro.api.JobHandle` (``.handle``) and
awaitable per-job verbs; the session verbs accept either form.
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

__all__ = ["AsyncGridSession", "AsyncJobHandle"]

_AnyHandle = "AsyncJobHandle | JobHandle | str"


class AsyncJobHandle:
    """An awaitable view of one consigned job.

    Wraps the immutable :class:`~repro.api.JobHandle` (exposed as
    :attr:`handle`, with its fields passed through) and the session it
    was submitted on, so per-job verbs read naturally::

        handle = await session.submit(job)
        await handle.wait()
        print((await handle.outcome()).stdout)
    """

    __slots__ = ("_session", "handle")

    def __init__(self, session: "AsyncGridSession", handle: JobHandle) -> None:
        self._session = session
        self.handle = handle

    @property
    def job_id(self) -> str:
        return self.handle.job_id

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def usite(self) -> str:
        return self.handle.usite

    @property
    def vsite(self) -> str:
        return self.handle.vsite

    @property
    def trace_id(self) -> str:
        return self.handle.trace_id

    @property
    def failed_over(self) -> bool:
        return self.handle.failed_over

    def __str__(self) -> str:
        return self.handle.job_id

    def __repr__(self) -> str:
        return f"<AsyncJobHandle {self.handle.job_id}>"

    async def status(self, allow_stale: bool = True) -> JobStatusView:
        return await self._session.status(self.handle, allow_stale)

    async def wait(self, max_polls: int = 10_000) -> JobStatusView:
        return await self._session.wait(self.handle, max_polls)

    async def outcome(self):
        return await self._session.outcome(self.handle)

    async def cancel(self) -> dict:
        return await self._session.cancel(self.handle)

    async def hold(self) -> dict:
        return await self._session.hold(self.handle)

    async def resume(self) -> dict:
        return await self._session.resume(self.handle)

    async def fetch_file(self, path: str, save_as: str | None = None) -> bytes:
        return await self._session.fetch_file(self.handle, path, save_as)

    async def dispose(self) -> dict:
        return await self._session.dispose(self.handle)


class AsyncGridSession(SessionCore):
    """A user's awaitable connection to the grid.

    Open with :meth:`connect` (the handshake must be awaited)::

        session = await AsyncGridSession.connect(grid, "Clara Grid", "FZJ")

    On a realtime transport, ``connect`` also starts the transport's
    server socket and opens the user's WAN connection, so a bare
    ``build_grid(..., transport="aio")`` grid works without manual
    plumbing.  Verbs accept :class:`AsyncJobHandle`, plain
    :class:`JobHandle`, or a raw job-id string.
    """

    @classmethod
    async def connect(
        cls,
        grid: "Grid",
        user: "GridUser | str",
        usite: str,
        breaker: CircuitBreaker | None = None,
        failover: bool = True,
        transport: "TransportSpec | str | None" = None,
    ) -> "AsyncGridSession":
        """Open a session: handshake, applets, pages, circuit breaker."""
        if transport is not None:
            spec = TransportSpec.parse(transport)
            if spec.kind != grid.network.kind:
                raise TransportMismatch(
                    f"session requested the {spec.kind!r} transport but the "
                    f"grid was built with {grid.network.kind!r}; pass "
                    f"transport={spec.kind!r} to build_grid"
                )
        self = cls(grid, user, usite, breaker=breaker, failover=failover)
        net = grid.network
        if getattr(net, "realtime", False):
            await net.start()
            await net.ensure_host(self.user.browser.host.name)
        await self._adrive(self.setup_plan(), name="connect")
        return self

    # -- plumbing ------------------------------------------------------------
    async def _adrive(self, gen: typing.Generator, name: str):
        """Drive one plan generator to completion (awaitable pattern)."""
        proc = self.sim.process(gen, name=f"api:{name}:{self.user.name}")
        net = self.grid.network
        if getattr(net, "realtime", False):
            return await net.drive(proc)
        # Deterministic backend: the plan runs to completion inline, the
        # same single-threaded schedule the blocking facade produces.
        return self.sim.run(until=proc)

    # -- authoring -----------------------------------------------------------
    async def new_job(
        self,
        name: str,
        vsite: str | None = None,
        usite: str | None = None,
        account_group: str = "",
    ) -> JobBuilder:
        """A builder bound for ``vsite`` (default: the home Usite's first)."""
        return await self._adrive(
            self.new_job_plan(name, vsite, usite, account_group),
            name=f"new_job:{name}",
        )

    # -- the four verbs ------------------------------------------------------
    async def submit(
        self, job: JobBuilder, workstation=None, broker: bool = False
    ) -> AsyncJobHandle:
        """Consign ``job``; see :meth:`SessionCore.submit_plan`."""
        handle = await self._adrive(
            self.submit_plan(job, workstation, broker),
            name=f"submit:{job.ajo.name}",
        )
        return AsyncJobHandle(self, handle)

    async def status(
        self, handle: _AnyHandle, allow_stale: bool = True
    ) -> JobStatusView:
        """The job's status tree; a cached view marked stale during outages."""
        return await self._adrive(
            self.status_plan(self._unwrap(handle), allow_stale), name="status"
        )

    async def wait(
        self, handle: _AnyHandle, max_polls: int = 10_000
    ) -> JobStatusView:
        """Wait until the job is terminal; see :meth:`SessionCore.wait_plan`."""
        return await self._adrive(
            self.wait_plan(self._unwrap(handle), max_polls), name="wait"
        )

    async def outcome(self, handle: _AnyHandle):
        """The full Outcome tree (stdout/stderr included) of a finished job."""
        return await self._adrive(
            self.outcome_plan(self._unwrap(handle)), name="outcome"
        )

    async def cancel(self, handle: _AnyHandle) -> dict:
        """Abort the job wherever its parts currently are."""
        return await self._adrive(
            self.cancel_plan(self._unwrap(handle)), name="cancel"
        )

    # -- the rest of the JMC, facaded for completeness -----------------------
    async def hold(self, handle: _AnyHandle) -> dict:
        return await self._adrive(self.hold_plan(self._unwrap(handle)), name="hold")

    async def resume(self, handle: _AnyHandle) -> dict:
        return await self._adrive(
            self.resume_plan(self._unwrap(handle)), name="resume"
        )

    async def list_jobs(self, usite: str | None = None) -> list[JobListing]:
        """The user's jobs at one Usite (default: the home site)."""
        return await self._adrive(self.list_jobs_plan(usite), name="list")

    async def fetch_file(
        self, handle: _AnyHandle, path: str, save_as: str | None = None
    ) -> bytes:
        """Bring one Uspace file back to the user's workstation."""
        return await self._adrive(
            self.fetch_file_plan(self._unwrap(handle), path, save_as),
            name="fetch",
        )

    async def dispose(self, handle: _AnyHandle) -> dict:
        return await self._adrive(
            self.dispose_plan(self._unwrap(handle)), name="dispose"
        )

    # -- simulation helper ---------------------------------------------------
    async def advance(self, seconds: float) -> None:
        """Let simulated time pass (jobs run; nothing blocks on it)."""
        await self._adrive(self.sleep_plan(seconds), name="advance")

    @staticmethod
    def _unwrap(handle: _AnyHandle) -> "JobHandle | str":
        return handle.handle if isinstance(handle, AsyncJobHandle) else handle
