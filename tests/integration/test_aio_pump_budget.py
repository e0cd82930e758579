"""What the real-socket pump may cost the event loop, and what it may not move.

Wall time moves from run to run; the number of times the event loop polls
its selector does not.  A round trip of the ``realsocket`` shape is three
requests, so six frames cross TCP; the pump enters the loop for those
frames and for the four places the awaiting coroutine takes its turn, and
for nothing else.  The same scenario pins the simulated schedule: the
clock is frozen while a frame is in flight, so the instant every event
fires at — and with it the final clock, the event count and the bytes on
the socket — does not depend on how often the loop turned.
"""

import asyncio
import itertools
import random
import selectors

from repro.api import AsyncGridSession
from repro.grid import LocalLoadGenerator, WorkloadProfile, build_grid
from repro.net.aio_transport import EVENTS_PER_TURN
from repro.simkernel import derive_rng

CLIENTS = 2
TRIPS_PER_CLIENT = 10
FILE_BYTES = 16 * 1024
RUNTIME_S = 5.0

#: One select() per frame to read it, one to resume the pump it woke, one
#: per settled driver: 6 * 2 + 4 = 16.  The parent commit needed 52.8 here.
POLLS_PER_TRIP = 20

#: Recorded at the parent commit (PR 17) for exactly this scenario;
#: ``events_processed`` again at PR 22, which took the entries nobody
#: waits for out of the queue (1358 before) and moved nothing else;
#: ``socket_bytes`` again when the MSG body and the OPEN preamble moved
#: to repro.asn1 (694299 before) and moved nothing else; ``socket_bytes``
#: and ``now`` again when replies and acks became repro.asn1 values
#: (693009 and 50.43788944000002 before: the shorter replies cross the
#: link sooner), with events and frames unmoved; ``now`` again when the
#: consignment became one repro.asn1 manifest value (50.437771040000044
#: before: the consign request's simulated wire size changed), with
#: events, frames and socket bytes unmoved; ``events_processed`` again
#: when the reply's crossing of the firewall socket became a relay folded
#: into the channel send (892 before, one entry per request), with the
#: clock, frames and socket bytes unmoved; ``now`` and
#: ``events_processed`` again when a dependency file already in its
#: task's Uspace stopped being copied onto itself (50.43777080000004 and
#: 832 before: the 16 KiB upload's staging copy is gone), with frames and
#: socket bytes unmoved; ``now`` again when a task came to be incarnated
#: as its group starts (50.43449400000004 before: each job's 16 KiB import
#: now overlaps its task's incarnation), with events, frames and socket
#: bytes unmoved; ``events_processed`` again when a process came to start
#: inside the call that makes it and a yield on an event already processed
#: to go on at once (812 before: no start is an entry), with the clock,
#: frames and socket bytes unmoved; ``events_processed`` again when a
#: reply, a finished task or job and a parked query came to resume their
#: waiter inside the call that triggers them, and a request's auth CPU
#: and firewall crossing to be one timer (590 before), with the clock,
#: frames and socket bytes unmoved.
GOLDEN = {
    "now": 50.43121720000005,
    "events_processed": 390,
    "socket_frames": 134,
    "socket_bytes": 689789,
}


class CountingSelector(selectors.DefaultSelector):
    """The platform selector, counting how often the loop polls it."""

    def __init__(self) -> None:
        super().__init__()
        self.polls = 0

    def select(self, timeout=None):
        self.polls += 1
        return super().select(timeout)


def _run(main):
    """Run ``main(selector)`` on a selector loop that counts its polls."""
    selector = CountingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        return loop.run_until_complete(main(selector))
    finally:
        loop.close()


async def _round_trip(session, name, source, content):
    job = await session.new_job(name, "FZJ-T3E")
    imp = job.import_from_workstation(source, "in.dat")
    work = job.script_task("touch", "#!/bin/sh\nwc in.dat\n",
                           simulated_runtime_s=RUNTIME_S)
    job.depends(imp, work, files=["in.dat"])
    handle = await session.submit(job)
    final = await handle.wait()
    assert final.status == "successful"
    assert await handle.fetch_file("in.dat") == content


def test_round_trips_stay_inside_the_poll_budget_and_on_the_golden_schedule(
    monkeypatch,
):
    # Request ids are drawn from one counter per process and ride the wire
    # as variable-length integers: restart it, or socket_bytes would depend
    # on how many requests the tests before this one made.
    monkeypatch.setattr(
        "repro.protocol.messages._request_ids", itertools.count(1))
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=10, transport="aio")
    users = [
        grid.add_user(f"Socket User {c}", logins={"FZJ": f"sock{c}"})
        for c in range(CLIENTS)
    ]
    files = []
    for c, user in enumerate(users):
        rng = random.Random(1800 + c)
        mine = [rng.randbytes(FILE_BYTES) for _ in range(TRIPS_PER_CLIENT)]
        for i, content in enumerate(mine):
            user.workstation.fs.write(f"/home/sock/in{i}.dat", content)
        files.append(mine)
    net = grid.network
    seen_tasks = set()

    async def client(session, mine, c):
        for i, content in enumerate(mine):
            await _round_trip(session, f"rt{c}-{i}", f"/home/sock/in{i}.dat",
                              content)
            seen_tasks.update(t.get_name() for t in asyncio.all_tasks())

    async def main(selector):
        sessions = [
            await AsyncGridSession.connect(grid, user, "FZJ") for user in users
        ]
        asyncio.current_task().set_name("main")
        polls_connected = selector.polls
        try:
            await asyncio.gather(*(
                asyncio.create_task(client(s, mine, c), name=f"client-{c}")
                for c, (s, mine) in enumerate(zip(sessions, files, strict=True))
            ))
            return selector.polls - polls_connected
        finally:
            await net.aclose()

    polls = _run(main)
    trips = CLIENTS * TRIPS_PER_CLIENT
    assert polls <= POLLS_PER_TRIP * trips, f"{polls / trips:.1f} polls per trip"
    # No reader task per connection, no accept handler, no timer task per
    # wait: the pump and the callers are all that lives on the loop.
    assert seen_tasks == {"main", "aio-pump", "client-0", "client-1"}
    assert {
        "now": grid.sim.now,
        "events_processed": grid.sim.profile()["events_processed"],
        "socket_frames": net.socket_frames,
        "socket_bytes": net.socket_bytes,
    } == GOLDEN


def test_a_long_simulated_stretch_does_not_starve_the_loop():
    """Two days of site-local batch load with no frame in flight: the pump
    still gives the loop a turn every EVENTS_PER_TURN events."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=10, transport="aio")
    user = grid.add_user("Patient User", logins={"FZJ": "patient"})
    LocalLoadGenerator(
        grid.sim, grid.usites["FZJ"].vsites["FZJ-T3E"].batch,
        derive_rng(10, "pump-fairness"), arrival_rate_per_s=1 / 30.0,
        profile=WorkloadProfile(mean_runtime_s=600.0, max_cpus=16),
    )
    ticks = 0

    async def heartbeat():
        nonlocal ticks
        while True:
            await asyncio.sleep(0)
            ticks += 1

    async def main(selector):
        session = await AsyncGridSession.connect(grid, user, "FZJ")
        beat = asyncio.create_task(heartbeat(), name="heartbeat")
        try:
            events0, ticks0 = grid.sim.events_processed, ticks
            await session.advance(48 * 3600.0)
            return grid.sim.events_processed - events0, ticks - ticks0
        finally:
            beat.cancel()
            await grid.network.aclose()

    events, beats = _run(main)
    assert events > 8 * EVENTS_PER_TURN, "the stretch is too short to tell"
    assert beats >= events // EVENTS_PER_TURN
