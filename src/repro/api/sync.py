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

The verbs are :class:`~repro.api._core.SessionCore`'s (see
:mod:`repro.api`); this module is the blocking driver — which is why
this facade only works on the deterministic simkernel transport.
Pointing it at a realtime backend raises
:class:`~repro.net.errors.TransportMismatch` (``"aio"`` sends need a
running event loop); use :class:`~repro.api.aio.AsyncGridSession` there.
"""

from __future__ import annotations

import typing

from repro.api._core import JobHandle, SessionCore
from repro.faults.breaker import CircuitBreaker
from repro.net.errors import TransportMismatch

if typing.TYPE_CHECKING:
    from repro.grid.build import Grid, GridUser
    from repro.net.transport import TransportSpec

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
        if grid.network.realtime:
            raise TransportMismatch(
                f"blocking GridSession cannot drive the realtime "
                f"{grid.network.kind!r} transport — its sends need a running "
                f"event loop; use repro.api.aio.AsyncGridSession"
            )
        super().__init__(grid, user, usite, breaker=breaker, failover=failover)
        self._drive(self.setup_plan(), "connect")

    @classmethod
    def connect(
        cls,
        grid: "Grid",
        user: "GridUser | str",
        usite: str,
        transport: "TransportSpec | str | None" = None,
        **kw,
    ) -> "GridSession":
        """Open a session, checking the grid runs the expected backend
        (a ``transport`` the grid was not built with raises
        :class:`~repro.net.errors.TransportMismatch`)."""
        cls._expect_transport(grid, transport)
        return cls(grid, user, usite, **kw)

    def _drive(self, gen: typing.Generator, name: str):
        """Drive one plan generator to completion (blocking pattern)."""
        return self.sim.run(until=self._process(gen, name))

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
