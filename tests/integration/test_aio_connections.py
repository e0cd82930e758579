"""Real-socket robustness: peers that misbehave end in a typed ``net.*``
error or are simply outlived, never in a hung pump or a dead healthy
connection.

Every scenario opens raw TCP connections beside the sessions' own, so the
peer can do what a well-behaved :class:`AioTransport` end never would:
claim a host twice, or say HELLO and then never read.
"""

import asyncio
import time

import pytest

from repro.api import AsyncGridSession
from repro.grid import build_grid
from repro.net import NetworkError
from repro.net.transport import TransportSpec
from repro.net.wire import encode_hello

IO_TIMEOUT_S = 0.3


def _grid(users=1):
    grid = build_grid(
        {"FZJ": ["FZJ-T3E"]}, seed=5,
        transport=TransportSpec("aio", {"io_timeout_s": IO_TIMEOUT_S}),
    )
    return grid, [
        grid.add_user(f"Wan User {i}", logins={"FZJ": f"wan{i}"})
        for i in range(users)
    ]


async def _raw_hello(net, host):
    """A connection of our own that claims to speak for ``host``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", net.port)
    writer.write(encode_hello(host))
    await writer.drain()
    await asyncio.sleep(0.05)  # the accepting end has read it
    return writer


async def _run_job(session, name):
    job = await session.new_job(name)
    job.script_task("work", "#!/bin/sh\nwork\n", simulated_runtime_s=30.0)
    handle = await session.submit(job)
    return (await handle.wait()).status


def test_reaping_a_stale_connection_leaves_the_live_one_registered():
    """A client that reconnected over a half-open link has two connections
    announced under one name; when the old one finally closes, the new
    one keeps serving."""
    grid, (user,) = _grid()
    net = grid.network

    async def main():
        async with await net.start():
            stale = await _raw_hello(net, user.browser.host.name)
            session = await AsyncGridSession.connect(grid, user, "FZJ")
            assert await _run_job(session, "before") == "successful"
            stale.close()
            await stale.wait_closed()
            await asyncio.sleep(0.05)  # the accepting end has seen the EOF
            assert await _run_job(session, "after") == "successful"

    asyncio.run(main())


def test_a_half_open_peer_stalls_its_own_frames_and_nobody_else():
    """HELLO, then silence: a frame written to that peer is never
    acknowledged, and the stall guard fails it after ``io_timeout_s``."""
    grid, (silent, healthy) = _grid(users=2)
    net, sim = grid.network, grid.sim
    gateway = grid.usites["FZJ"].gateway_host.name

    def one_send():
        yield net.send(gateway, silent.browser.host.name, payload=b"ping",
                       size_bytes=4, deliver=False)

    async def main():
        async with await net.start():
            peer = await _raw_hello(net, silent.browser.host.name)
            started = time.monotonic()
            with pytest.raises(NetworkError) as stalled:
                await net.drive(sim.process(one_send()))
            waited = time.monotonic() - started
            assert stalled.value.code == "net.error"
            assert "transport stalled" in str(stalled.value)
            assert "1 frames in flight" in str(stalled.value)
            assert 0.9 * IO_TIMEOUT_S <= waited < 10 * IO_TIMEOUT_S

            session = await AsyncGridSession.connect(grid, healthy, "FZJ")
            assert await _run_job(session, "healthy") == "successful"
            peer.close()

    asyncio.run(main())


def test_a_driver_nothing_can_wake_ends_in_transport_deadlock():
    grid, _users = _grid()
    net, sim = grid.network, grid.sim

    def wait_for_nobody():
        yield sim.event()

    async def main():
        async with await net.start():
            started = time.monotonic()
            with pytest.raises(NetworkError, match="transport deadlock"):
                await net.drive(sim.process(wait_for_nobody()))
            waited = time.monotonic() - started
            assert 0.9 * IO_TIMEOUT_S <= waited < 10 * IO_TIMEOUT_S

    asyncio.run(main())
