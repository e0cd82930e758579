"""The pluggable transport interface: one protocol, two fabrics.

Every message in the reproduction — control-plane
:class:`~repro.protocol.messages.Request`/``Reply`` envelopes, data-plane
stream frames, handshake flights — crosses tiers through one call,
``transport.send(src, dst, payload, size_bytes, ...)``.  This module
defines that surface as an abstract :class:`Transport` so the fabric
underneath is interchangeable:

``"sim"``
    :class:`repro.net.sim_transport.Network` — the deterministic
    simkernel backend: virtual clock, modeled latency/bandwidth/loss.
    Every test, fault scenario, and deterministic benchmark runs here.

``"aio"``
    :class:`repro.net.aio_transport.AioTransport` — a real ``asyncio``
    TCP backend: WAN edges (user workstation ↔ gateway) carry the same
    wire messages as length-prefixed frames over real sockets, so the
    stack can serve actual concurrent clients and be measured in
    wall-clock msgs/s and MB/s.

Backend choice is one argument end to end:
``build_grid(..., transport="aio")`` at construction, and the matching
session facade (:class:`repro.api.GridSession` for ``sim``,
:class:`repro.api.aio.AsyncGridSession` for either) at use.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel import Event, Simulator

__all__ = [
    "Transport",
    "TransportSpec",
    "resolve_transport",
]


class Transport:
    """The message fabric between UNICORE components.

    Concrete backends provide named hosts with inboxes, point-to-point
    reachability, and :meth:`send`.  Server processes and protocol
    clients are written against this surface only, so swapping the
    fabric never touches their logic.
    """

    #: Name of the backend (``"sim"``, ``"aio"``).
    kind: str = "abstract"
    #: True when sends involve real I/O that must be pumped by an event
    #: loop.  The blocking :class:`~repro.api.GridSession` facade refuses
    #: realtime transports; :class:`~repro.api.aio.AsyncGridSession`
    #: drives either.
    realtime: bool = False

    # -- topology -------------------------------------------------------------
    # Host and link objects are backend-specific (the simkernel Host
    # carries an inbox Store; the aio backend hands out socket-backed
    # peers), so the interface types them as Any.
    def add_host(self, name: str) -> typing.Any:
        raise NotImplementedError

    def host(self, name: str) -> typing.Any:
        raise NotImplementedError

    def link(
        self,
        src: str,
        dst: str,
        latency_s: float = 0.010,
        bandwidth_Bps: float = 1_250_000.0,
        loss_probability: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        raise NotImplementedError

    def get_link(self, src: str, dst: str) -> typing.Any:
        raise NotImplementedError

    def mark_wan(self, name: str) -> None:
        """Declare ``name`` a WAN-side (client) host.

        Realtime backends route traffic between a WAN host and the
        server tier over real sockets; the simkernel backend models
        every edge identically, so this is a no-op there.
        """

    # -- traffic ---------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int,
        channel: str = "raw",
        deliver: bool = True,
        delay_s: float = 0.0,
    ) -> "Event":
        """Send; returns the delivery event (fails on loss/reset).

        ``delay_s`` is time the sender needs before the first byte can
        leave (sealing https records).  The message takes its place on
        the ``src -> dst`` edge now and leaves no earlier than
        ``now + delay_s``; messages on one edge leave in call order.
        """
        raise NotImplementedError

    # -- snapshot support -----------------------------------------------------
    def state_cursors(self) -> dict[str, object]:
        """Internal counters and RNG cursors, for grid snapshots.

        A restored grid must continue the exact message-id and loss-draw
        sequences of the original, so the simkernel backend exposes its
        cursors here.  Realtime backends have no replayable cursor state;
        the base implementation refuses with
        :class:`~repro.storage.errors.SnapshotError`.
        """
        from repro.storage.errors import SnapshotError

        raise SnapshotError(
            f"transport backend {self.kind!r} does not support snapshots"
        )

    def restore_cursors(self, cursors: dict[str, object]) -> None:
        """Restore the cursors captured by :meth:`state_cursors`."""
        from repro.storage.errors import SnapshotError

        raise SnapshotError(
            f"transport backend {self.kind!r} does not support snapshots"
        )

    # -- instrumentation ------------------------------------------------------
    @property
    def hosts(self) -> list[str]:
        raise NotImplementedError

    def total_bytes_sent(self) -> int:
        raise NotImplementedError

    def total_messages_lost(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class TransportSpec:
    """A declarative backend choice: backend name plus options.

    Accepted anywhere a transport is chosen
    (``build_grid(transport=...)``, ``GridSession.connect(...)``,
    ``AsyncGridSession.connect(...)``) in any of three spellings::

        build_grid(sites)                                   # default "sim"
        build_grid(sites, transport="aio")                  # by name
        build_grid(sites, transport=TransportSpec("aio", {"port": 9423}))
    """

    kind: str = "sim"
    options: typing.Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def parse(cls, value: "TransportSpec | str | None") -> "TransportSpec":
        """Coerce ``None`` / a backend name / a spec into a spec."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"transport must be a TransportSpec, backend name, or None; "
            f"got {value!r}"
        )


def resolve_transport(
    spec: "TransportSpec | str | None", sim: "Simulator", seed: int = 0
) -> Transport:
    """Instantiate the backend a spec names: ``"sim"`` or ``"aio"``.

    Raises :class:`~repro.net.errors.NetworkError` for any other kind.
    """
    parsed = TransportSpec.parse(spec)
    options = typing.cast("dict[str, typing.Any]", dict(parsed.options))
    if parsed.kind == "sim":
        from repro.net.sim_transport import Network

        return Network(sim, seed=seed, **options)
    if parsed.kind == "aio":
        from repro.net.aio_transport import AioTransport

        return AioTransport(sim, seed=seed, **options)
    from repro.net.errors import NetworkError

    raise NetworkError(
        f"unknown transport backend {parsed.kind!r}; choose sim or aio"
    )
