"""The pluggable transport surface: spec parsing, the two backends
and the facade/backend mismatch guards."""

import pytest

from repro.api import GridSession
from repro.api.aio import AsyncGridSession
from repro.grid.build import build_grid
from repro.net.errors import NetworkError, TransportMismatch
from repro.net.transport import TransportSpec, resolve_transport


def _grid(transport=None):
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=3, transport=transport)
    grid.add_user("Alice Debye", logins={"FZJ": "alice"})
    return grid


# -- TransportSpec ------------------------------------------------------------

def test_spec_parse_accepts_none_name_and_spec():
    assert TransportSpec.parse(None) == TransportSpec("sim", {})
    assert TransportSpec.parse("aio").kind == "aio"
    spec = TransportSpec("aio", {"port": 9423})
    assert TransportSpec.parse(spec) is spec


def test_spec_parse_rejects_other_types():
    with pytest.raises(TypeError):
        TransportSpec.parse(42)


# -- the two backends ---------------------------------------------------------

def test_builtin_backends_registered():
    from repro.simkernel import Simulator

    for kind in ("sim", "aio"):
        assert resolve_transport(kind, Simulator(), seed=9).kind == kind


def test_resolve_unknown_kind_raises_network_error():
    from repro.simkernel import Simulator

    with pytest.raises(NetworkError, match="unknown transport"):
        resolve_transport("carrier-pigeon", Simulator())


def test_build_grid_default_is_sim_backend():
    grid = _grid()
    assert grid.network.kind == "sim"
    assert grid.network.realtime is False


def test_build_grid_aio_backend():
    grid = _grid(transport="aio")
    assert grid.network.kind == "aio"
    assert grid.network.realtime is True


# -- facade/backend mismatch guards ------------------------------------------

def test_blocking_session_refuses_realtime_backend():
    grid = _grid(transport="aio")
    with pytest.raises(TransportMismatch) as ei:
        GridSession(grid, "Alice Debye", "FZJ")
    assert ei.value.code == "net.transport_mismatch"


def test_connect_rejects_wrong_transport_name():
    grid = _grid()  # sim
    with pytest.raises(TransportMismatch):
        GridSession.connect(grid, "Alice Debye", "FZJ", transport="aio")


def test_connect_accepts_matching_transport_name():
    grid = _grid()
    session = GridSession.connect(grid, "Alice Debye", "FZJ",
                                  transport="sim")
    assert session.user.name == "Alice Debye"


def test_async_connect_rejects_wrong_transport_name():
    import asyncio

    grid = _grid()  # sim
    with pytest.raises(TransportMismatch):
        asyncio.run(AsyncGridSession.connect(
            grid, "Alice Debye", "FZJ", transport="aio"))


# -- the interface module holds only the interface ---------------------------

def test_unknown_attribute_still_raises():
    from repro.net import transport as mod

    # The simkernel classes live in repro.net.sim_transport; their old
    # address here is gone, not redirected.
    for name in ("Bogus", "Network", "Message", "DEFAULT_TIMEOUT"):
        assert name not in dir(mod)
        with pytest.raises(AttributeError):
            getattr(mod, name)
