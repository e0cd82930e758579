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
simulated clock only advances when the sockets are quiet.  The pump
(:meth:`drive`) alternates between draining due simulator events and
awaiting socket activity; while any frame is unacknowledged the clock
is frozen, so response deadlines, gateway subscription holds, and retry
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
import typing

from repro.net.errors import (
    ConnectionRefused,
    ConnectionReset,
    FrameDecodeError,
    NetworkError,
)
from repro.net.sim_transport import Message, Network
from repro.net.wire import (
    FTYPE_HELLO,
    HEADER,
    WireMessage,
    decode_frame,
    encode_hello,
    encode_message,
    read_frames,
)
from repro.simkernel import Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel import Process

__all__ = ["AioTransport"]


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
        #: Wall-clock guard: if no socket progress happens for this long
        #: while frames are in flight (or drivers are starved), the
        #: transport declares itself stalled instead of hanging forever.
        self.io_timeout_s = io_timeout_s
        self._wan: set[str] = set()
        self._server: asyncio.AbstractServer | None = None
        self._wake: asyncio.Event | None = None
        #: One TCP connection per WAN host, addressed from both ends.
        self._client_writers: dict[str, asyncio.StreamWriter] = {}
        self._server_writers: dict[str, asyncio.StreamWriter] = {}
        self._io_tasks: set[asyncio.Task] = set()
        #: msg_id -> (delivery event, WAN host the frame rides through).
        self._pending: dict[int, tuple[Event, str]] = {}
        self._pump_task: asyncio.Task | None = None
        self._driving = 0
        self._driver_futs: set[asyncio.Future] = set()
        #: Real-socket instrumentation (frames/bytes received off TCP).
        self.socket_frames = 0
        self.socket_bytes = 0

    # -- topology --------------------------------------------------------------
    def mark_wan(self, name: str) -> None:
        self._wan.add(name)

    @property
    def started(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise NetworkError("transport not started")
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "AioTransport":
        """Bind the server socket for the gateway tier; idempotent."""
        if self._server is None:
            self._wake = asyncio.Event()
            self._server = await asyncio.start_server(
                self._accept, self._tcp_host, self._tcp_port
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
            reader, writer = await asyncio.open_connection(
                self._tcp_host, self.port
            )
        except OSError as exc:
            raise ConnectionRefused(
                f"connect to {self._tcp_host}:{self.port} for {name!r} "
                f"failed: {exc}"
            ) from exc
        writer.write(encode_hello(name))
        await writer.drain()
        self._client_writers[name] = writer
        task = asyncio.create_task(
            self._reader_loop(name, reader, writer), name=f"aio-client-{name}"
        )
        self._io_tasks.add(task)
        task.add_done_callback(self._io_tasks.discard)

    async def aclose(self) -> None:
        """Tear down sockets and the pump; safe to call repeatedly."""
        for task in list(self._io_tasks):
            task.cancel()
        if self._pump_task is not None:
            self._pump_task.cancel()
        for writers in (self._client_writers, self._server_writers):
            for writer in list(writers.values()):
                writer.close()
            writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*self._io_tasks, return_exceptions=True)
        self._io_tasks.clear()
        self._pump_task = None

    async def __aenter__(self) -> "AioTransport":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # -- socket plumbing -------------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._io_tasks.add(task)
            task.add_done_callback(self._io_tasks.discard)
        name: str | None = None
        try:
            async for ftype, body in read_frames(reader):
                decoded = decode_frame(ftype, body)
                if name is None:
                    if ftype != FTYPE_HELLO:
                        raise FrameDecodeError(
                            "first frame on a new connection must be HELLO"
                        )
                    name = typing.cast(str, decoded)
                    self._server_writers[name] = writer
                    self._notify()
                    continue
                self._on_frame(
                    typing.cast(WireMessage, decoded), HEADER.size + len(body)
                )
        except (OSError, FrameDecodeError):
            pass  # fall through to _drop_endpoint, which fails in-flight sends
        except asyncio.CancelledError:
            # aclose() cancels handlers; return cleanly so the stream
            # protocol's done-callback does not log the cancellation.
            pass
        finally:
            if name is not None:
                self._drop_endpoint(name)
            writer.close()

    async def _reader_loop(
        self,
        name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            async for ftype, body in read_frames(reader):
                decoded = decode_frame(ftype, body)
                self._on_frame(
                    typing.cast(WireMessage, decoded), HEADER.size + len(body)
                )
        except (OSError, FrameDecodeError):
            pass
        except asyncio.CancelledError:
            pass  # aclose() cancels reader tasks; exit quietly
        finally:
            self._drop_endpoint(name)
            writer.close()

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

    def _drop_endpoint(self, name: str) -> None:
        """A WAN host's connection died: fail its in-flight deliveries."""
        self._client_writers.pop(name, None)
        self._server_writers.pop(name, None)
        stale = [m for m, (_ev, wan) in self._pending.items() if wan == name]
        for msg_id in stale:
            ev, _ = self._pending.pop(msg_id)
            ev.fail(
                ConnectionReset(
                    f"connection for {name!r} dropped with message "
                    f"{msg_id} in flight"
                )
            )
        self._notify()

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

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
        ev = self.sim.event(name=f"delivery:{msg_id}")

        def write() -> None:
            writer = (
                self._client_writers.get(wan_name)
                if wan_src
                else self._server_writers.get(wan_name)
            )
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
            self._pending[msg_id] = (ev, wan_name)
            try:
                writer.write(frame)
            except OSError as exc:
                self._pending.pop(msg_id, None)
                ev.fail(ConnectionReset(f"write to {wan_name!r} failed: {exc}"))
                return
            self._notify()

        # The socket does the transmitting, so the slot has no length:
        # reserving it only keeps one edge's frames in call order.  A
        # frame enters _pending when it is written, not before, because
        # the pump freezes the clock while anything is pending.
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
        fut: asyncio.Future = loop.create_future()
        proc.defuse()  # the future carries the failure to the awaiter

        def _settle(ev: Event) -> None:
            if not fut.done():
                if ev._ok:
                    fut.set_result(ev._value)
                else:
                    fut.set_exception(typing.cast(BaseException, ev._value))

        assert proc.callbacks is not None
        proc.callbacks.append(_settle)
        self._driving += 1
        self._driver_futs.add(fut)
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = asyncio.create_task(self._pump(), name="aio-pump")
        self._notify()
        try:
            return await fut
        finally:
            self._driving -= 1
            self._driver_futs.discard(fut)

    async def _pump(self) -> None:
        """Advance simulated time only while the sockets are quiet."""
        assert self._wake is not None
        wake = self._wake
        sim = self.sim
        while self._driving > 0:
            # Drain everything due at the current instant (this is where
            # sends are issued and delivered inboxes are consumed).
            sim.run(until=sim.now)
            # Yield once: socket readers consume newly written frames and
            # finished drivers resume/decrement before we decide to wait.
            await asyncio.sleep(0)
            if self._driving == 0:
                break
            if sim.peek() <= sim.now:
                continue  # the yield produced new due-now work
            if self._pending:
                wake.clear()
                if not self._pending:  # raced: frame landed before clear
                    continue
                try:
                    await asyncio.wait_for(wake.wait(), self.io_timeout_s)
                except asyncio.TimeoutError:
                    self._fail_pending(
                        NetworkError(
                            f"transport stalled: no socket progress in "
                            f"{self.io_timeout_s}s with "
                            f"{len(self._pending)} frames in flight"
                        )
                    )
                continue
            nxt = sim.peek()
            if nxt != float("inf"):
                # Sockets quiet: the next timer (retry deadline, hold
                # expiry, modeled LAN latency) is allowed to fire.
                sim.run(until=nxt)
                continue
            # Nothing due, nothing in flight, drivers still waiting:
            # either a new drive()/frame arrives, or we are deadlocked.
            wake.clear()
            if self._pending or sim.peek() != float("inf") or not self._driving:
                continue
            try:
                await asyncio.wait_for(wake.wait(), self.io_timeout_s)
            except asyncio.TimeoutError:
                stall = NetworkError(
                    "transport deadlock: drivers waiting with no simulator "
                    "events and no socket traffic"
                )
                for fut in list(self._driver_futs):
                    if not fut.done():
                        fut.set_exception(stall)
                break

    def _fail_pending(self, exc: NetworkError) -> None:
        for msg_id in list(self._pending):
            ev, _ = self._pending.pop(msg_id)
            ev.fail(exc)
        self._notify()
