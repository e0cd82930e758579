"""The six workloads: what each one builds, runs, and checks.

A workload is three functions of one repetition:

* ``setup(seed, scratch)`` builds a fresh grid, its users and sessions,
  and draws every input from the seed (timed as ``setup_s``);
* ``run(state, probe)`` is the timed phase — it drives the grid through
  the public session API only and reports each op to the
  :class:`Probe`;
* ``check(state, probe)`` runs after the clock stopped and turns wrong
  outputs into failed ops instead of assertions.

Inputs are *stratified*: every seed gets the same multiset of think
times, runtimes and job shapes, and the seed only decides their order
(plus file contents and the local load).  That keeps the work per
repetition equal across seeds, so a different seed is a different
input, not a different amount of work.

The deployment itself (sites, certificates) is fixed by ``GRID_SEED``;
the seed draws the traffic.
"""

from __future__ import annotations

import asyncio
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from repro.ajo import encode_outcome
from repro.api import AsyncGridSession, GridSession
from repro.grid import (
    LocalLoadGenerator,
    WorkloadProfile,
    build_german_grid,
    build_grid,
)
from repro.resources import ResourceRequest
from repro.simkernel import AllOf

MIB = 1 << 20
KIB = 1 << 10

GRID_SEED = 10

#: Sizes of the files the program itself materializes for a job shape
#: (result files named on a dependency or an export, compile and link
#: products).  They enter ``storage.amplification``'s denominator.
RESULT_FILE_BYTES = 1 * MIB
OBJECT_FILE_BYTES = 64 * KIB
EXECUTABLE_BYTES = 512 * KIB

GERMAN_VSITES = {
    "FZJ": "FZJ-T3E", "RUS": "RUS-T3E", "RUKA": "RUKA-SP2",
    "ZIB": "ZIB-SP2", "LRZ": "LRZ-VPP", "DWD": "DWD-SX4",
}
HOME_SITES = ("FZJ", "ZIB", "DWD")
STREAMS_PER_USER = 2


class Probe:
    """What one repetition observed, op by op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: First few failure descriptions, for the report.
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.sim_overheads_s: list[float] = []
        #: The number ``*_per_op`` metrics divide by (ops, or MiB on bulk).
        self.ops = 0.0
        #: Per-workload observations that feed per-layer metrics.
        self.extra: dict[str, typing.Any] = {}
        #: The layer tracer when this repetition is traced, else None.
        self.tracer: typing.Any = None
        #: Job ids whose sim-time trace feeds the tier breakdown.
        self.traced_jobs: list[str] = []

    def op(self, latency_s: float, sim_overhead_s: float, ok: bool,
           what: str = "") -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1e3)
        self.sim_overheads_s.append(sim_overhead_s)
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def require(self, condition: bool, what: str) -> None:
        """An output check: a miss counts as one failed op."""
        if not condition:
            self.fail(what)


@dataclass
class State:
    """Everything one repetition's ``run`` and ``check`` need."""

    grid: typing.Any
    sessions: list = field(default_factory=list)
    inputs: typing.Any = None
    #: Distinct bytes the grid was asked to hold (file bodies the harness
    #: generated plus products the job shapes declare).
    payload_bytes: int = 0
    #: Bytes of file bodies that travel as chunked streams.
    streamed_payload_bytes: int = 0
    list_calls: int = 0
    closers: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    setup: typing.Callable[[int, str], State]
    run: typing.Callable[[State, Probe], None]
    check: typing.Callable[[State, Probe], None]
    #: Extra traced-run-only phase (operator costs that no op pays).
    post: "typing.Callable[[State, Probe], None] | None" = None
    realtime: bool = False


# ------------------------------------------------------------------ inputs
def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _stratified_exponential(rng, n: int, mean: float) -> list[float]:
    """The n mid-quantiles of Exp(mean), in seed order."""
    values = -mean * np.log1p(-(np.arange(n) + 0.5) / n)
    rng.shuffle(values)
    return [float(v) for v in values]


def _stratified_uniform(rng, n: int, lo: float, hi: float) -> list[float]:
    values = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    rng.shuffle(values)
    return [float(v) for v in values]


@dataclass(frozen=True)
class JobSpec:
    name: str
    kind: str  # "script" | "cle" | "pipeline"
    think_s: float
    runtimes: tuple[float, ...]


def _job_stream(rng, prefix: str, kinds: list[str]) -> list[JobSpec]:
    """One closed-loop stream's jobs: fixed shapes, seed-drawn order."""
    n = len(kinds)
    kinds = list(kinds)
    rng.shuffle(kinds)
    thinks = _stratified_exponential(rng, n, 3000.0)
    first = _stratified_uniform(rng, n, 600.0, 3600.0)
    second = _stratified_uniform(rng, n, 600.0, 3600.0)
    return [
        JobSpec(
            name=f"{prefix}j{i}",
            kind=kinds[i],
            think_s=thinks[i],
            runtimes=(first[i], second[i]) if kinds[i] == "pipeline"
            else (first[i],),
        )
        for i in range(n)
    ]


def _speed(grid, usite: str) -> float:
    return grid.usites[usite].vsites[GERMAN_VSITES[usite]].machine.speed_factor


def _other_site(home: str) -> str:
    return "LRZ" if home != "LRZ" else "RUKA"


def _critical_path_s(grid, spec: JobSpec, home: str) -> float:
    """Sim seconds the job's own tasks need, which no middleware can save."""
    if spec.kind == "pipeline":
        return (spec.runtimes[0] / _speed(grid, home)
                + spec.runtimes[1] / _speed(grid, _other_site(home)))
    work = spec.runtimes[0]
    if spec.kind == "cle":
        work += 30.0 + 20.0  # one-source compile, then link
    return work / _speed(grid, home)


def _declared_bytes(spec: JobSpec, files: bool) -> int:
    if not files:
        return 0
    if spec.kind == "pipeline":
        return RESULT_FILE_BYTES  # the hand-off
    total = 4096 + RESULT_FILE_BYTES
    if spec.kind == "cle":
        total += len(_SOURCE) + OBJECT_FILE_BYTES + EXECUTABLE_BYTES
    return total


_SOURCE = b"program x\nend\n"
_TASK_RESOURCES = ResourceRequest(cpus=8, time_s=14400.0, memory_mb=512.0)


def _author(session, spec: JobSpec, home: str, files: bool):
    """Plan: author one job on ``session`` (the JPA's editing step)."""
    name = spec.name
    builder = yield from session.new_job_plan(name, GERMAN_VSITES[home])
    if spec.kind == "pipeline":
        other = _other_site(home)
        stage1 = builder.script_task(
            "stage1", script="#!/bin/sh\ns1\n", resources=_TASK_RESOURCES,
            simulated_runtime_s=spec.runtimes[0],
        )
        sub = builder.sub_job(
            f"{name}-remote", vsite=GERMAN_VSITES[other], usite=other
        )
        sub.script_task(
            "stage2", script="#!/bin/sh\ns2\n", resources=_TASK_RESOURCES,
            simulated_runtime_s=spec.runtimes[1],
        )
        builder.depends(stage1, sub, files=["hand.off"] if files else [])
        return builder
    if not files:
        builder.script_task(
            f"{name}-work", script=f"#!/bin/sh\n./application  # {name}\n",
            resources=_TASK_RESOURCES, simulated_runtime_s=spec.runtimes[0],
        )
        return builder
    imp = builder.import_from_xspace(f"/data/{name}/input.dat", "input.dat")
    if spec.kind == "script":
        work = builder.script_task(
            f"{name}-work",
            script=f"#!/bin/sh\n./application input.dat  # {name}\n",
            resources=_TASK_RESOURCES, simulated_runtime_s=spec.runtimes[0],
        )
    else:
        compile_task, _, work = builder.compile_link_execute(
            name, sources=[f"{name}.f90"], executable=f"{name}.exe",
            run_resources=_TASK_RESOURCES,
            simulated_runtime_s=spec.runtimes[0],
        )
        src = builder.import_from_xspace(
            f"/data/{name}/{name}.f90", f"{name}.f90"
        )
        builder.depends(src, compile_task, files=[f"{name}.f90"])
    exp = builder.export_to_xspace("result.dat", f"/results/{name}.dat")
    builder.depends(imp, work, files=["input.dat"])
    builder.depends(work, exp, files=["result.dat"])
    return builder


# ------------------------------------------------ replay and smalljobs
def _job_op(op: int, state: State, probe: Probe, session, spec: JobSpec,
            home: str, files: bool):
    """One op: author, consign, subscribe-wait until terminal.

    Its latency is the consign — what the user waits for before the job
    id comes back.  Wall time until the job is terminal would mostly
    count the other streams' events that share the simulator.
    """
    sim = state.grid.sim
    wall0, sim0 = time.perf_counter(), sim.now
    consigned = wall0
    try:
        builder = yield from _author(session, spec, home, files)
        handle = yield from session.submit_plan(builder)
        consigned = time.perf_counter()
        final = yield from session.wait_plan(handle)
    except Exception as err:  # an op that raised is a failed op, not a crash
        probe.op(consigned - wall0, sim.now - sim0, False,
                 f"{spec.name}: {err!r}")
        return
    overhead = (sim.now - sim0) - _critical_path_s(state.grid, spec, home)
    state.inputs["status"][op] = final.status
    if len(probe.traced_jobs) < 60:
        probe.traced_jobs.append(handle.job_id)
    probe.op(consigned - wall0, overhead, True)


def _stream(state: State, probe: Probe, session, home: str, first_op: int,
            specs: list[JobSpec], files: bool):
    for i, spec in enumerate(specs):
        yield from session.sleep_plan(spec.think_s)
        yield from _job_op(first_op + i, state, probe, session, spec, home, files)


def _six_site_setup(seed: int, kinds: list[str], files: bool,
                    local_load: bool) -> State:
    grid = build_german_grid(seed=GRID_SEED)
    logins = {site: "prod" for site in grid.usites}
    users = [grid.add_user(f"Prod User {i}", logins=logins) for i in range(3)]
    sessions = [
        GridSession(grid, user, home)
        for user, home in zip(users, HOME_SITES, strict=True)
    ]
    streams = []
    payload = 0
    for u, home in enumerate(HOME_SITES):
        for s in range(STREAMS_PER_USER):
            # The two streams of a user mirror each other's script/compile
            # split so the repetition holds both shapes equally.
            mix = kinds if s == 0 else [
                {"script": "cle", "cle": "script"}.get(k, k) for k in kinds
            ]
            specs = _job_stream(_rng(seed, u, s), f"u{u}s{s}", mix)
            streams.append((u, home, specs))
            payload += sum(_declared_bytes(spec, files) for spec in specs)
            if files:
                fs = grid.usites[home].xspace.fs
                for spec in specs:
                    if spec.kind != "pipeline":
                        fs.write(f"/data/{spec.name}/input.dat", b"x" * 4096)
                        fs.write(f"/data/{spec.name}/{spec.name}.f90", _SOURCE)
    if local_load:
        # Site-local jobs compete for every machine, as in production.
        for i, (site, vsite) in enumerate(GERMAN_VSITES.items()):
            LocalLoadGenerator(
                grid.sim, grid.usites[site].vsites[vsite].batch,
                _rng(seed, 100 + i),
                arrival_rate_per_s=1 / 3600.0,
                profile=WorkloadProfile(mean_runtime_s=5400.0, max_cpus=16),
                horizon_s=24 * 3600.0,
            )
    total = sum(len(specs) for _, _, specs in streams)
    return State(
        grid=grid, sessions=sessions, payload_bytes=payload,
        inputs={"streams": streams, "files": files, "status": [None] * total},
    )


def _six_site_run(state: State, probe: Probe) -> None:
    sim = state.grid.sim
    procs, first_op = [], 0
    for u, home, specs in state.inputs["streams"]:
        procs.append(sim.process(_stream(
            state, probe, state.sessions[u], home, first_op, specs,
            state.inputs["files"],
        )))
        first_op += len(specs)
    sim.run(until=AllOf(sim, procs))
    probe.ops = float(probe.attempted)


def _six_site_check(state: State, probe: Probe) -> None:
    statuses = state.inputs["status"]
    terminal = {"successful", "failed", "killed", "not_attempted"}
    for status in statuses:
        # A job whose op raised is already counted; a job that came back
        # non-terminal is a lost job.
        if status is not None and status not in terminal:
            probe.fail(f"job ended {status!r}")
    good = sum(1 for s in statuses if s == "successful")
    probe.require(good >= 0.9 * len(statuses),
                  f"only {good}/{len(statuses)} jobs successful")


#: Per stream: 70 % single-site (script and compile-link-execute), 30 %
#: two-site pipelines.
REPLAY_KINDS = ["script"] * 4 + ["cle"] * 3 + ["pipeline"] * 3
SMALLJOBS_KINDS = (["script"] * 7 + ["pipeline"] * 3) * 15


def _replay_setup(seed: int, scratch: str) -> State:
    return _six_site_setup(seed, REPLAY_KINDS, files=True, local_load=True)


def _smalljobs_setup(seed: int, scratch: str) -> State:
    return _six_site_setup(seed, SMALLJOBS_KINDS, files=False, local_load=False)


# ------------------------------------------------------------- monitor
MONITOR_SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
MONITOR_JOBS = 200
MONITOR_REQUESTS = 4000


def _monitor_setup(seed: int, scratch: str) -> State:
    grid = build_grid(MONITOR_SITES, seed=GRID_SEED)
    user = grid.add_user("Watcher", logins={s: "watch" for s in MONITOR_SITES})
    session = GridSession(grid, user, "FZJ")
    handles = []
    sites = list(MONITOR_SITES)
    for i in range(MONITOR_JOBS):
        usite = sites[i % 2]
        job = session.new_job(f"live{i}", MONITOR_SITES[usite][0], usite)
        resources = ResourceRequest(cpus=1, time_s=86400.0)
        first = job.script_task("first", "#!/bin/sh\na\n", resources=resources,
                                simulated_runtime_s=80000.0)
        second = job.script_task("second", "#!/bin/sh\nb\n", resources=resources,
                                 simulated_runtime_s=80000.0)
        job.depends(first, second)
        handles.append(session.submit(job))
    rng = _rng(seed, 0)
    # Every tenth request lists a site's jobs, the rest ask one job's status.
    targets = rng.integers(0, MONITOR_JOBS, size=MONITOR_REQUESTS)
    return State(grid=grid, sessions=[session],
                 inputs={"handles": handles, "targets": targets.tolist()})


def _monitor_op(op: int, state: State, probe: Probe, session) -> None:
    sim = state.grid.sim
    handles = state.inputs["handles"]
    target = state.inputs["targets"][op]
    wall0, sim0 = time.perf_counter(), sim.now
    try:
        if op % 10 == 9:
            usite = handles[target].usite
            state.list_calls += 1
            rows = session.list_jobs(usite)
            ok = len(rows) == MONITOR_JOBS // 2
            what = f"list_jobs({usite}) returned {len(rows)} rows"
        else:
            view = session.status(handles[target], allow_stale=False)
            ok = view.name == handles[target].name and len(view.children) == 2
            what = f"status({handles[target].job_id}) returned {view.name!r}"
    except Exception as err:
        ok, what = False, repr(err)
    probe.op(time.perf_counter() - wall0, sim.now - sim0, ok, what)


def _monitor_run(state: State, probe: Probe) -> None:
    session = state.sessions[0]
    written = state.grid.storage.bytes_written
    for op in range(MONITOR_REQUESTS):
        _monitor_op(op, state, probe, session)
    probe.ops = float(probe.attempted)
    probe.extra["storage_bytes_in_timed_phase"] = (
        state.grid.storage.bytes_written - written
    )


def _monitor_check(state: State, probe: Probe) -> None:
    probe.require(probe.extra["storage_bytes_in_timed_phase"] == 0,
                  "queries wrote to storage")


# ---------------------------------------------------------------- bulk
BULK_SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
BULK_FILE_BYTES = 4 * MIB
BULK_FILES = 4
BULK_FETCHES_PER_FILE = 6
BULK_CONSUME_RUNTIME_S = 60.0
#: Each file crosses two hops on the way up: JPA upload, then NJS -> NJS.
BULK_MOVED_UP = 2 * BULK_FILES * BULK_FILE_BYTES
BULK_MOVED_DOWN = BULK_FILES * BULK_FETCHES_PER_FILE * BULK_FILE_BYTES


def _bulk_setup(seed: int, scratch: str) -> State:
    grid = build_grid(BULK_SITES, seed=GRID_SEED)
    user = grid.add_user("Mover", logins={s: "mover" for s in BULK_SITES})
    session = GridSession(grid, user, "FZJ")
    rng = _rng(seed, 0)
    files = []
    for i in range(BULK_FILES):
        content = rng.bytes(BULK_FILE_BYTES)
        user.workstation.fs.write(f"/home/mover/f{i}.dat", content)
        files.append(content)
    order = [i % BULK_FILES for i in range(BULK_FILES * BULK_FETCHES_PER_FILE)]
    rng.shuffle(order)
    return State(
        grid=grid, sessions=[session],
        payload_bytes=BULK_FILES * BULK_FILE_BYTES,
        streamed_payload_bytes=BULK_MOVED_UP + BULK_MOVED_DOWN,
        inputs={"files": files, "order": order, "handles": []},
    )


def _bulk_up_op(op: int, state: State, probe: Probe, session) -> None:
    """Stream one workstation file to FZJ and hand it to a sub-job at ZIB."""
    grid, sim = state.grid, state.grid.sim
    wall0, sim0 = time.perf_counter(), sim.now
    try:
        job = session.new_job(f"up{op}", "FZJ-T3E")
        imp = job.import_from_workstation(f"/home/mover/f{op}.dat", "payload.dat")
        sub = job.sub_job(f"up{op}-consume", vsite="ZIB-SP2", usite="ZIB")
        sub.script_task("consume", "#!/bin/sh\nwc payload.dat\n",
                        simulated_runtime_s=BULK_CONSUME_RUNTIME_S)
        if op % 2:
            # Explicit Uspace-to-Uspace transfer task, then the sub-job.
            move = job.transfer_to_usite("payload.dat", "ZIB")
            job.depends(imp, move, files=["payload.dat"])
            job.depends(move, sub)
        else:
            # Dependency hand-off: the file is staged ahead of the group.
            job.depends(imp, sub, files=["payload.dat"])
        handle = session.submit(job)
        final = session.wait(handle)
        outcome = session.outcome(handle)
        ok = (final.status == "successful"
              and outcome.rollup_status().value == "successful")
        what = f"up{op} ended {final.status}"
        state.inputs["handles"].append(handle)
        probe.traced_jobs.append(handle.job_id)
    except Exception as err:
        ok, what = False, f"up{op}: {err!r}"
    critical = (BULK_CONSUME_RUNTIME_S
                / grid.usites["ZIB"].vsites["ZIB-SP2"].machine.speed_factor)
    probe.op(time.perf_counter() - wall0, (sim.now - sim0) - critical, ok, what)


def _bulk_down_op(op: int, state: State, probe: Probe, session) -> None:
    sim = state.grid.sim
    which = state.inputs["order"][op]
    wall0, sim0 = time.perf_counter(), sim.now
    try:
        content = session.fetch_file(state.inputs["handles"][which], "payload.dat")
        ok = content == state.inputs["files"][which]
        what = f"fetch {op}: bytes differ from file {which}"
    except Exception as err:
        ok, what = False, f"fetch {op}: {err!r}"
    probe.op(time.perf_counter() - wall0, sim.now - sim0, ok, what)


def _bulk_run(state: State, probe: Probe) -> None:
    session = state.sessions[0]
    started = time.perf_counter()
    for op in range(BULK_FILES):
        _bulk_up_op(op, state, probe, session)
    up_s = time.perf_counter() - started
    # Latency on bulk is the client-visible fetch; the up jobs are timed
    # as a phase.
    del probe.latencies_ms[:]
    layer_self_s = probe.tracer.snapshot() if probe.tracer else None
    started = time.perf_counter()
    if len(state.inputs["handles"]) == BULK_FILES:
        for op in range(len(state.inputs["order"])):
            _bulk_down_op(op, state, probe, session)
    down_s = time.perf_counter() - started
    if layer_self_s is not None:
        probe.extra["download_self_s"] = [
            after - before for before, after in
            zip(layer_self_s, probe.tracer.snapshot(), strict=True)
        ]
    probe.ops = (BULK_MOVED_UP + BULK_MOVED_DOWN) / MIB
    probe.extra["upload_MiB_per_s"] = BULK_MOVED_UP / MIB / up_s
    probe.extra["download_MiB_per_s"] = BULK_MOVED_DOWN / MIB / down_s


def _bulk_check(state: State, probe: Probe) -> None:
    expected = BULK_FILES + len(state.inputs["order"])
    probe.require(probe.attempted == expected,
                  f"{probe.attempted}/{expected} transfers attempted")


# ---------------------------------------------------------- realsocket
SOCKET_CLIENTS = 2
SOCKET_JOBS_PER_CLIENT = 150
SOCKET_FILE_BYTES = 16 * KIB
SOCKET_RUNTIME_S = 5.0


def _realsocket_setup(seed: int, scratch: str) -> State:
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=GRID_SEED, transport="aio")
    users = [
        grid.add_user(f"Socket User {i}", logins={"FZJ": f"sock{i}"})
        for i in range(SOCKET_CLIENTS)
    ]
    contents = []
    for c, user in enumerate(users):
        rng = _rng(seed, c)
        mine = []
        for i in range(SOCKET_JOBS_PER_CLIENT):
            content = rng.bytes(SOCKET_FILE_BYTES)
            user.workstation.fs.write(f"/home/sock/in{i}.dat", content)
            mine.append(content)
        contents.append(mine)
    loop = asyncio.new_event_loop()

    async def connect():
        return [
            await AsyncGridSession.connect(grid, user, "FZJ") for user in users
        ]

    sessions = loop.run_until_complete(connect())

    def close() -> None:
        loop.run_until_complete(grid.network.aclose())
        loop.close()

    return State(
        grid=grid, sessions=sessions,
        payload_bytes=SOCKET_CLIENTS * SOCKET_JOBS_PER_CLIENT * SOCKET_FILE_BYTES,
        inputs={"contents": contents, "loop": loop}, closers=[close],
    )


async def _socket_op(op: int, state: State, probe: Probe, session,
                     content: bytes, index: int) -> None:
    """One round trip: upload, run, subscribe-wait, fetch back, compare."""
    sim = state.grid.sim
    wall0, sim0 = time.perf_counter(), sim.now
    try:
        job = await session.new_job(f"rt{op}", "FZJ-T3E")
        imp = job.import_from_workstation(f"/home/sock/in{index}.dat", "in.dat")
        work = job.script_task("touch", "#!/bin/sh\nwc in.dat\n",
                               simulated_runtime_s=SOCKET_RUNTIME_S)
        job.depends(imp, work, files=["in.dat"])
        handle = await session.submit(job)
        final = await handle.wait()
        fetched = await handle.fetch_file("in.dat")
        ok = final.status == "successful" and fetched == content
        what = f"rt{op}: ended {final.status}, {len(fetched)} bytes back"
        if len(probe.traced_jobs) < 60:
            probe.traced_jobs.append(handle.job_id)
    except Exception as err:
        ok, what = False, f"rt{op}: {err!r}"
    probe.op(time.perf_counter() - wall0,
             (sim.now - sim0) - SOCKET_RUNTIME_S, ok, what)


async def _socket_client(state: State, probe: Probe, client: int) -> None:
    session = state.sessions[client]
    for i, content in enumerate(state.inputs["contents"][client]):
        op = client * SOCKET_JOBS_PER_CLIENT + i
        await _socket_op(op, state, probe, session, content, i)


def _realsocket_run(state: State, probe: Probe) -> None:
    async def clients() -> None:
        await asyncio.gather(*(
            _socket_client(state, probe, c) for c in range(SOCKET_CLIENTS)
        ))

    state.inputs["loop"].run_until_complete(clients())
    probe.ops = float(probe.attempted)


def _realsocket_check(state: State, probe: Probe) -> None:
    expected = SOCKET_CLIENTS * SOCKET_JOBS_PER_CLIENT
    probe.require(probe.attempted == expected,
                  f"{probe.attempted}/{expected} round trips attempted")
    probe.require(state.grid.network.socket_bytes > state.payload_bytes,
                  "payload bytes did not cross the socket")


# ------------------------------------------------------------- restart
RESTART_HISTORY = 160
RESTART_FILE_BYTES = 64 * KIB
RESTART_CYCLES = 3
RESTART_READS_PER_CYCLE = 40


def _restart_setup(seed: int, scratch: str) -> State:
    path = os.path.join(scratch, "restart.db")
    for leftover in (path, path + "-wal", path + "-shm", path + "-journal"):
        if os.path.exists(leftover):
            os.remove(leftover)
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=GRID_SEED,
                      storage=f"sqlite:{path}")
    user = grid.add_user("Historian", logins={"FZJ": "hist"})
    session = GridSession(grid, user, "FZJ")
    rng = _rng(seed, 0)
    files, handles = [], []
    # One transaction for the whole history: 480 fsyncs would make set-up
    # a measurement of the sandbox's disk, which drifts by half.
    with grid.storage.batch():
        for i in range(RESTART_HISTORY):
            content = rng.bytes(RESTART_FILE_BYTES)
            user.workstation.fs.write(f"/home/hist/h{i}.dat", content)
            job = session.new_job(f"hist{i}", "FZJ-T3E")
            imp = job.import_from_workstation(f"/home/hist/h{i}.dat", "kept.dat")
            work = job.script_task("work", "#!/bin/sh\nwc kept.dat\n",
                                   simulated_runtime_s=30.0)
            job.depends(imp, work, files=["kept.dat"])
            handles.append(session.submit(job))
            files.append(content)
        for handle in handles:
            session.wait(handle)
    reads = rng.permutation(RESTART_HISTORY)[
        : RESTART_CYCLES * RESTART_READS_PER_CYCLE
    ].tolist()
    # The outcome bytes every later incarnation of the site must serve.
    before = {i: encode_outcome(session.outcome(handles[i])) for i in reads}
    return State(
        grid=grid, sessions=[session],
        payload_bytes=RESTART_HISTORY * RESTART_FILE_BYTES,
        inputs={"files": files, "handles": handles, "reads": reads,
                "before": before, "user": user},
        closers=[grid.storage.close],
    )


def _restart_read_op(op: int, state: State, probe: Probe, session) -> None:
    sim = state.grid.sim
    which = state.inputs["reads"][op]
    handle = state.inputs["handles"][which]
    wall0, sim0 = time.perf_counter(), sim.now
    try:
        outcome = session.outcome(handle)
        content = session.fetch_file(handle, "kept.dat")
        ok = (encode_outcome(outcome) == state.inputs["before"][which]
              and content == state.inputs["files"][which])
        what = f"restored {handle.job_id}: outcome or file bytes changed"
    except Exception as err:
        ok, what = False, f"restored {handle.job_id}: {err!r}"
    probe.op(time.perf_counter() - wall0, sim.now - sim0, ok, what)


def _restart_run(state: State, probe: Probe) -> None:
    grid = state.grid
    site = grid.usites["FZJ"]
    restart_s, read_s = [], 0.0
    for cycle in range(RESTART_CYCLES):
        started = time.perf_counter()
        read_before = grid.storage.bytes_read
        site.crash_site()
        site.restart_site()
        probe.extra["bytes_read_per_restart"] = (
            grid.storage.bytes_read - read_before
        )
        try:
            session = GridSession(grid, state.inputs["user"], "FZJ")
            listed = session.list_jobs()
        except Exception as err:
            probe.fail(f"cycle {cycle}: site did not come back: {err!r}")
            continue
        restart_s.append(time.perf_counter() - started)
        probe.require(
            {row.job_id for row in listed}
            == {h.job_id for h in state.inputs["handles"]},
            f"cycle {cycle}: {len(listed)}/{RESTART_HISTORY} jobs listed",
        )
        started = time.perf_counter()
        first = cycle * RESTART_READS_PER_CYCLE
        for op in range(first, first + RESTART_READS_PER_CYCLE):
            _restart_read_op(op, state, probe, session)
        read_s += time.perf_counter() - started
    probe.ops = float(probe.attempted)
    probe.extra["read_s"] = read_s
    probe.extra["restart_s"] = float(np.median(restart_s)) if restart_s else 0.0


def _restart_check(state: State, probe: Probe) -> None:
    expected = RESTART_CYCLES * RESTART_READS_PER_CYCLE
    probe.require(probe.attempted == expected,
                  f"{probe.attempted}/{expected} restored reads attempted")


def _restart_post(state: State, probe: Probe) -> None:
    """Operator costs: checkpoint the whole grid and thaw it in memory."""
    snapshot_ms, thaw_ms = [], []
    for _ in range(3):
        started = time.perf_counter()
        snap = state.grid.snapshot()
        snapshot_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        thawed = build_grid(restore_from=snap, storage="memory")
        thaw_ms.append((time.perf_counter() - started) * 1e3)
        probe.require(thawed.sim.now == state.grid.sim.now,
                      "thawed grid resumed at another clock")
    probe.extra["snapshot_ms"] = float(np.median(snapshot_ms))
    probe.extra["thaw_ms"] = float(np.median(thaw_ms))
    probe.extra["snapshot_bytes"] = float(len(snap.to_bytes()))


# ------------------------------------------------------------ registry
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "replay",
            "Six-site mixed replay with 1 MiB results; storage codec and "
            "outcome persistence dominate, so a storage change must show here.",
            "one job, consign to terminal",
            _replay_setup, _six_site_run, _six_site_check,
        ),
        Workload(
            "smalljobs",
            "Same grid and job mix with no files: control plane only, so a "
            "storage change must not move it and a kernel or NJS change must.",
            "one job, consign to terminal",
            _smalljobs_setup, _six_site_run, _six_site_check,
        ),
        Workload(
            "monitor",
            "200 live jobs, 9 status : 1 list_jobs; the read path of gateway "
            "and NJS, the smallest messages, and no storage write allowed.",
            "one status or list_jobs request",
            _monitor_setup, _monitor_run, _monitor_check,
        ),
        Workload(
            "bulk",
            "4 MiB files up through two hops then fetched back; the data "
            "plane, where up also journals the bytes and down is pure framing.",
            "one MiB of payload moved",
            _bulk_setup, _bulk_run, _bulk_check,
        ),
        Workload(
            "realsocket",
            "Two async clients over real TCP loopback with 16 KiB files; the "
            "only workload with the aio transport, wire codec and OS on the path.",
            "one job round trip (upload, run, wait, fetch back)",
            _realsocket_setup, _realsocket_run, _realsocket_check,
            realtime=True,
        ),
        Workload(
            "restart",
            "Crash and cold-start a site over an on-disk SQLite history, then "
            "read restored jobs; storage reads, the reverse of what replay writes.",
            "one restored-job read (outcome + fetch_file)",
            _restart_setup, _restart_run, _restart_check, post=_restart_post,
        ),
    )
}

#: Functions whose first argument is the id of the op they carry out; the
#: layer tracer stamps spans opened beneath them with that id.
OP_FUNCTIONS = (
    _job_op, _monitor_op, _bulk_up_op, _bulk_down_op, _socket_op,
    _restart_read_op,
)
