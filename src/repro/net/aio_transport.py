"""The real-socket transport backend: asyncio TCP under the sim clock.

:class:`AioTransport` extends the simkernel :class:`~repro.net.sim_transport.Network`
with one change of fabric: edges that cross the WAN boundary — a host
registered with :meth:`mark_wan` (user workstations) talking to the
server tier — carry their messages as length-prefixed frames over real
TCP connections (:mod:`repro.net.wire`), while intra-site edges
(gateway ↔ NJS) keep the in-process delivery path.  That split mirrors
the paper's deployment: the user's applet speaks SSL over the open
Internet to the gateway, and everything behind the gateway is the
site's own fast network.

The protocol stack above is untouched because time is *hybrid*: the
simulated clock moves only when no frame is in flight **and** no settled
driver is waiting for its turn, and the pump (:meth:`drive`) enters the
event loop only then, when something outside the simulator can change
what is due.  Until a frame is written or a driver's process ends it
just steps the simulator (one courtesy turn per :data:`EVENTS_PER_TURN`
events, so a long simulated stretch starves no other task).  Then the
clock freezes: the events due at that very instant are drained and the
pump suspends — for one turn after a settled driver, so the awaiting
coroutine can :meth:`drive` its next plan at the same instant; otherwise
until a frame arrives, a connection is lost or a new :meth:`drive`
begins.  So response deadlines, gateway subscription holds, and retry
backoff timers fire exactly when they would in a pure simulation — but
each WAN round-trip is real bytes through the OS, measurable in
wall-clock msgs/s and MB/s.

Failure mapping keeps the ``net.*`` error contract: a TCP connect
failure raises :class:`ConnectionRefused`, a reset or EOF with frames
in flight fails their delivery events with :class:`ConnectionReset` —
both subclasses of :class:`ConnectionLost`, so every retry loop written
against the sim backend handles them unchanged.
"""

from __future__ import annotations

import asyncio
import math
import typing

from repro.net.errors import (
    ConnectionRefused,
    ConnectionReset,
    FrameDecodeError,
    NetworkError,
)
from repro.net.sim_transport import Message, Network
from repro.net.wire import (
    HEADER,
    FrameSplitter,
    WireMessage,
    decode_frame,
    encode_hello,
    encode_message,
)
from repro.simkernel import Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel import Process

__all__ = ["AioTransport", "EVENTS_PER_TURN"]

#: Simulator events the pump steps through before it gives the event loop
#: a turn it does not need itself.
EVENTS_PER_TURN = 1024


class _Endpoint(asyncio.Protocol):
    """One end of a WAN host's TCP connection (both ends live here).

    The connecting end knows which host it speaks for and says HELLO; the
    accepting end is nameless until that frame arrives.  Either answers in
    its side's registry under that name while it is the latest to claim
    it.  Bytes are split, decoded and delivered in the turn they arrive.
    """

    _transport: asyncio.WriteTransport  # from connection_made on

    def __init__(self, net: "AioTransport", name: str | None = None) -> None:
        self._net = net
        self._name = name
        self._writers = (
            net._server_writers if name is None else net._client_writers
        )
        self._splitter = FrameSplitter()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = typing.cast(asyncio.WriteTransport, transport)
        self._net._connections.add(self._transport)
        if self._name is not None:
            self._transport.write(encode_hello(self._name))
            self._writers[self._name] = self._transport

    def data_received(self, data: bytes) -> None:
        try:
            for ftype, body in self._splitter.feed(data):
                decoded = decode_frame(ftype, body)
                if isinstance(decoded, str) != (self._name is None):
                    raise FrameDecodeError(
                        "HELLO must be a connection's first frame and no other"
                    )
                if isinstance(decoded, str):
                    self._name = decoded
                    self._writers[decoded] = self._transport
                else:
                    self._net._on_frame(decoded, HEADER.size + len(body))
        except FrameDecodeError:
            self._transport.close()  # connection_lost fails what is in flight

    def eof_received(self) -> None:
        try:
            self._splitter.eof()
        except FrameDecodeError:
            self._transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        """Forget this end and fail the frames written to it — and nothing
        else: a stale connection reaped late (its client reconnected over
        a half-open link) must not take down the one that replaced it."""
        net, gone, name = self._net, self._transport, self._name
        net._connections.discard(gone)
        if name is not None and self._writers.get(name) is gone:
            del self._writers[name]
        for msg_id, (ev, written_to) in list(net._pending.items()):
            if written_to is gone:
                del net._pending[msg_id]
                ev.fail(ConnectionReset(
                    f"connection for {name!r} dropped with message "
                    f"{msg_id} in flight"
                ))
        net._notify()


class AioTransport(Network):
    """TCP-backed transport; see the module docstring for the model."""

    kind = "aio"
    realtime = True

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        io_timeout_s: float = 30.0,
    ) -> None:
        super().__init__(sim, seed)
        self._tcp_host = host
        self._tcp_port = int(port)
        #: Wall-clock guard: after this long with no socket progress, frames
        #: in flight (or starved drivers) fail as stalled instead of hanging.
        self.io_timeout_s = io_timeout_s
        self._wan: set[str] = set()
        self._server: asyncio.Server | None = None
        #: One TCP connection per WAN host, addressed from both ends.
        self._client_writers: dict[str, asyncio.WriteTransport] = {}
        self._server_writers: dict[str, asyncio.WriteTransport] = {}
        #: Every open connection end, named or not yet, for :meth:`aclose`.
        self._connections: set[asyncio.WriteTransport] = set()
        #: msg_id -> (delivery event, the connection end it was written to).
        self._pending: dict[int, tuple[Event, asyncio.WriteTransport]] = {}
        self._pump_task: asyncio.Task[None] | None = None
        #: What the suspended pump waits on; see :meth:`_notify`.
        self._waiter: asyncio.Future[bool] | None = None
        self._driver_futs: set[asyncio.Future[object]] = set()
        #: A driver's process ended and its awaiter has not had a turn yet.
        self._settled = False
        #: Real-socket instrumentation (frames/bytes received off TCP).
        self.socket_frames = 0
        self.socket_bytes = 0

    # -- topology --------------------------------------------------------------
    def mark_wan(self, name: str) -> None:
        self._wan.add(name)

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise NetworkError("transport not started")
        return typing.cast(int, self._server.sockets[0].getsockname()[1])

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "AioTransport":
        """Bind the server socket for the gateway tier; idempotent."""
        if self._server is None:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _Endpoint(self), self._tcp_host, self._tcp_port
            )
        return self

    async def ensure_host(self, name: str) -> None:
        """Open (once) the TCP connection a WAN host sends through."""
        if name not in self._wan:
            raise NetworkError(f"host {name!r} is not WAN-marked")
        if self._server is None:
            raise NetworkError("transport not started")
        writer = self._client_writers.get(name)
        if writer is not None and not writer.is_closing():
            return
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: _Endpoint(self, name), self._tcp_host, self.port
            )
        except OSError as exc:
            raise ConnectionRefused(
                f"connect to {self._tcp_host}:{self.port} for {name!r} "
                f"failed: {exc}"
            ) from exc

    async def aclose(self) -> None:
        """Tear down sockets and the pump; safe to call repeatedly."""
        if self._pump_task is not None:
            self._pump_task.cancel()
            self._pump_task = None
        for connection in list(self._connections):
            connection.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # One turn: each aborted end's connection_lost runs, which is what
        # empties the registries, and the cancelled pump ends.
        await asyncio.sleep(0)

    async def __aenter__(self) -> "AioTransport":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # -- socket plumbing -------------------------------------------------------
    def _on_frame(self, wm: WireMessage, nbytes: int) -> None:
        """A frame arrived off a socket: deliver and acknowledge."""
        self.socket_frames += 1
        self.socket_bytes += nbytes
        message = Message(
            sender=wm.sender, recipient=wm.recipient, payload=wm.payload,
            size_bytes=wm.size_bytes, msg_id=wm.msg_id, channel=wm.channel,
        )
        if wm.deliver:
            self.host(wm.recipient)._deliver(message)
        entry = self._pending.pop(wm.msg_id, None)
        if entry is not None:
            entry[0].succeed(message)
        self._notify()

    def _notify(self, progress: bool = True) -> None:
        """Resume the pump if it is waiting; ``False`` means "timed out"."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(progress)

    async def _wait(self) -> bool:
        """Suspend the pump until :meth:`_notify` or, false, the timeout."""
        loop = asyncio.get_running_loop()
        waiter = self._waiter = loop.create_future()
        timer = loop.call_later(self.io_timeout_s, self._notify, False)
        try:
            return await waiter
        finally:
            timer.cancel()
            self._waiter = None

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
    ) -> Event:
        wan_src = src in self._wan
        wan_dst = dst in self._wan
        if self._server is None or wan_src == wan_dst:
            # LAN edges (gateway <-> NJS) and pre-start traffic keep the
            # in-process delivery path with modeled latency.
            return super().send(
                src, dst, payload, size_bytes, channel, deliver, delay_s
            )
        if size_bytes < 0:
            raise NetworkError("message size must be non-negative")
        self.host(dst)  # unknown-host parity with the sim backend
        link = self.get_link(src, dst)  # no-link parity (HostUnreachable)
        msg_id = next(self._msg_seq)
        wan_name = src if wan_src else dst
        writers = self._client_writers if wan_src else self._server_writers
        ev = self.sim.event(name=f"delivery:{msg_id}")

        def write() -> None:
            writer = writers.get(wan_name)
            if writer is None or writer.is_closing():
                ev.fail(
                    ConnectionRefused(
                        f"no live connection for WAN host {wan_name!r} "
                        f"({src} -> {dst})"
                    )
                )
                return
            # The simulated wire size still lands on the link counters so
            # total_bytes_sent() means the same thing on both backends.
            link.bytes_sent += size_bytes
            link.messages_sent += 1
            frame = encode_message(
                msg_id, src, dst, payload, size_bytes, channel, deliver
            )
            # A failed write is reported to connection_lost: it fails this.
            self._pending[msg_id] = (ev, writer)
            writer.write(frame)

        # The socket does the transmitting, so the slot has no length:
        # reserving it only keeps one edge's frames in call order.  A
        # frame enters _pending when it is written, not before, because
        # a pending frame freezes the clock.
        self.sim.schedule_callback(link.reserve(delay_s) - self.sim.now, write)
        return ev

    # -- the pump --------------------------------------------------------------
    async def drive(self, proc: "Process") -> object:
        """Run a simkernel process to completion, pumping sim + sockets.

        Multiple concurrent ``drive`` calls share one pump task, so
        several async sessions can progress through the same grid — the
        asyncio analogue of ``sim.run(until=proc)``.
        """
        if proc.processed:
            if proc.ok:
                return proc.value
            raise typing.cast(BaseException, proc.value)
        loop = asyncio.get_running_loop()
        fut: asyncio.Future[object] = loop.create_future()
        proc.defuse()  # the future carries the failure to the awaiter

        def _settle(ev: Event) -> None:
            if not fut.done():
                self._settled = True
                if ev._ok:
                    fut.set_result(ev._value)
                else:
                    fut.set_exception(typing.cast(BaseException, ev._value))

        assert proc.callbacks is not None
        proc.callbacks.append(_settle)
        self._driver_futs.add(fut)
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = loop.create_task(self._pump(), name="aio-pump")
        self._notify()
        try:
            return await fut
        finally:
            self._driver_futs.discard(fut)

    async def _pump(self) -> None:
        """Step the simulator; enter the event loop only when something
        outside the simulator can change what is due (module docstring)."""
        sim = self.sim
        step, peek, inf = sim.step, sim.peek, math.inf
        pending = self._pending
        while self._driver_futs:
            budget = EVENTS_PER_TURN
            while (
                budget and not pending and not self._settled and peek() != inf
            ):
                step()
                budget -= 1
            if pending or self._settled:
                # The clock is frozen from here: finish this instant (more
                # sends are issued, what deliveries woke runs) and no other.
                sim.run(until=sim.now)
                if self._settled:
                    # One turn: the awaiter resumes and may drive() again
                    # at this instant, or leave the pump with one fewer.
                    self._settled = False
                    await asyncio.sleep(0)
                elif not await self._wait():
                    stalled = NetworkError(
                        f"transport stalled: no socket progress in "
                        f"{self.io_timeout_s}s with "
                        f"{len(pending)} frames in flight"
                    )
                    for ev, _connection in pending.values():
                        ev.fail(stalled)
                    pending.clear()
            elif not budget:
                await asyncio.sleep(0)
            # Nothing due, nothing in flight, drivers still waiting:
            # either a new drive()/frame arrives, or we are deadlocked.
            elif not await self._wait():
                deadlock = NetworkError(
                    "transport deadlock: drivers waiting with no simulator "
                    "events and no socket traffic"
                )
                for fut in list(self._driver_futs):
                    if not fut.done():
                        fut.set_exception(deadlock)
                break
