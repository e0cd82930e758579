"""Choosing the fabric: one protocol, two backends.

Every message in the reproduction — control-plane
:class:`~repro.protocol.messages.Request`/``Reply`` envelopes, data-plane
stream frames, handshake flights — crosses tiers through one call,
``network.send(src, dst, payload, size_bytes, ...)``.  The interface is
:class:`repro.net.sim_transport.Network` (see its docstring); this
module names the two fabrics behind it and builds the one asked for:

``"sim"``
    :class:`repro.net.sim_transport.Network` itself — the deterministic
    simkernel backend: virtual clock, modeled latency/bandwidth/loss.
    Every test, fault scenario, and deterministic benchmark runs here.

``"aio"``
    :class:`repro.net.aio_transport.AioTransport`, a ``Network`` whose
    WAN edges (user workstation ↔ gateway) carry the same wire messages
    as length-prefixed frames over real TCP sockets, so the stack can
    serve actual concurrent clients and be measured in wall-clock
    msgs/s and MB/s.

Backend choice is one argument end to end:
``build_grid(..., transport="aio")`` at construction, and the matching
session facade (:class:`repro.api.GridSession` for ``sim``,
:class:`repro.api.aio.AsyncGridSession` for either) at use.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.sim_transport import Network
    from repro.simkernel import Simulator

__all__ = ["TransportSpec", "resolve_transport"]


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
) -> "Network":
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
