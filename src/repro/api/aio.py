"""The asyncio facade: awaitable sessions over either transport.

:class:`AsyncGridSession` is the ``async`` driver of the verbs of
:mod:`repro.api`.  On the simkernel backend each ``await`` runs the plan
deterministically to completion; on the ``"aio"`` backend the plan is
handed to the transport pump, so many sessions progress concurrently
while their WAN messages travel over real TCP sockets::

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
from repro.protocol.views import JobStatusView

if typing.TYPE_CHECKING:
    from repro.grid.build import Grid, GridUser
    from repro.net.transport import TransportSpec

__all__ = ["AsyncGridSession", "AsyncJobHandle"]


class AsyncJobHandle:
    """An awaitable view of one consigned job.

    Wraps the immutable :class:`~repro.api.JobHandle` (exposed as
    :attr:`handle`; its fields — ``job_id``, ``name``, ``usite``,
    ``vsite``, ``trace_id``, ``failed_over`` — read through) and the
    session it was submitted on, so per-job verbs read naturally::

        handle = await session.submit(job)
        await handle.wait()
        print((await handle.outcome()).stdout)
    """

    __slots__ = ("_session", "handle")

    def __init__(self, session: "AsyncGridSession", handle: JobHandle) -> None:
        self._session = session
        self.handle = handle

    def __getattr__(self, field: str) -> typing.Any:
        if field in JobHandle.__slots__:  # its fields, nothing else
            return getattr(self.handle, field)
        raise AttributeError(field)

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

    async def cancel(self) -> str:
        return await self._session.cancel(self.handle)

    async def hold(self) -> str:
        return await self._session.hold(self.handle)

    async def resume(self) -> str:
        return await self._session.resume(self.handle)

    async def fetch_file(self, path: str, save_as: str | None = None) -> bytes:
        return await self._session.fetch_file(self.handle, path, save_as)

    async def dispose(self) -> str:
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
        cls._expect_transport(grid, transport)
        self = cls(grid, user, usite, breaker=breaker, failover=failover)
        net = grid.network
        if net.realtime:
            await net.start()
            await net.ensure_host(self.user.browser.host.name)
        await self._drive(self.setup_plan(), "connect")
        return self

    async def _drive(self, gen: typing.Generator, name: str):
        """Drive one plan generator to completion (awaitable pattern)."""
        proc = self._process(gen, name)
        net = self.grid.network
        if net.realtime:
            return await net.drive(proc)
        # Deterministic backend: the plan runs to completion inline, the
        # same single-threaded schedule the blocking facade produces.
        return self.sim.run(until=proc)

    async def submit(
        self, job: JobBuilder, workstation=None, broker: bool = False
    ) -> AsyncJobHandle:
        """Consign ``job``; see :meth:`SessionCore.submit_plan`."""
        return AsyncJobHandle(self, await super().submit(job, workstation, broker))

    async def advance(self, seconds: float) -> None:
        """Let simulated time pass (jobs run; nothing blocks on it)."""
        await self._drive(self.sleep_plan(seconds), "advance")
