"""Runs one workload in this process and turns what it saw into metrics.

One *repetition* is a fresh grid: set-up (timed as ``setup_s``), the
timed phase, the output checks, tear-down.  A run is one untimed warm-up
repetition — the first touch of a cold heap costs up to twice a warm
one — then timed repetitions of the same seed until the time budget is
used.  Timed metrics are medians over repetitions; latencies are pooled
over them.

Costs are read only through public accessors: ``sim.profile()``, the
transport's byte and frame counts, the storage backend's counters and
the telemetry registry's ``counter_value``.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from repro.grid import TierTimes
from repro.observability import telemetry_for

import layertrace
import metrics as M
from workloads import OP_FUNCTIONS, Probe, Workload

MIN_TIMED_REPETITIONS = 3
#: Share of a traced run's budget spent on untraced reference repetitions.
REFERENCE_SHARE = 0.2

TELEMETRY_COUNTERS = (
    "protocol.requests_sent", "protocol.retries", "consignment.bytes",
    "gateway.requests", "gateway.subscribe_holds", "njs.incarnations",
    "njs.incarnation_cache.hits", "njs.incarnation_cache.misses",
    "njs.index.hits", "njs.journal.records", "njs.forwarded_groups",
    "njs.transfer_bytes", "jmc.delta_views", "stream.chunks",
    "stream.wire_bytes", "stream.resumes", "batch.submitted",
)
STORAGE_COUNTERS = ("writes", "reads", "fsyncs", "bytes_written", "bytes_read")


def read_counters(grid) -> dict[str, float]:
    """Every cost counter of one grid, through its public accessors."""
    profile = grid.sim.profile()
    network = grid.network
    registry = telemetry_for(grid.sim).metrics
    out = {
        "events": profile["events_processed"],
        "peak_heap": profile["peak_heap_size"],
        "messages": network.state_cursors()["msg_seq"] - 1,
        "wire_bytes": network.total_bytes_sent(),
        "socket_frames": getattr(network, "socket_frames", 0),
        "socket_bytes": getattr(network, "socket_bytes", 0),
    }
    for name in STORAGE_COUNTERS:
        out[f"storage.{name}"] = getattr(grid.storage, name)
    for name in TELEMETRY_COUNTERS:
        out[name] = registry.counter_value(name)
    return out


def _span_count(grid) -> int:
    tracer = telemetry_for(grid.sim).tracer
    return sum(len(tracer.trace(trace_id)) for trace_id in tracer.traces())


_TIER_FIELDS = {
    "client.consign_sim_ms": ("consign_s", 1e3),
    "server.gateway.auth_sim_ms": ("gateway_auth_s", 1e3),
    "server.njs.incarnation_sim_ms": ("incarnation_s", 1e3),
    "server.njs.staging_sim_s": ("staging_s", 1.0),
    "batch.wait_sim_s": ("batch_wait_s", 1.0),
    "client.outcome_return_sim_ms": ("outcome_return_s", 1e3),
}


def _tier_means(grid, job_ids: list[str]) -> dict[str, float]:
    """Mean sim-time per tier over the sampled jobs' own traces."""
    tracer = telemetry_for(grid.sim).tracer
    tiers = []
    for job_id in job_ids:
        try:
            tiers.append(TierTimes.from_trace(tracer.trace(job_id)))
        except KeyError:
            continue  # consigned without a trace (restored jobs)
    return {
        name: (statistics.fmean(getattr(t, attr) for t in tiers) * scale
               if tiers else 0.0)
        for name, (attr, scale) in _TIER_FIELDS.items()
    }


@dataclass
class Repetition:
    setup_s: float
    wall_s: float
    user_s: float
    sys_s: float
    probe: Probe
    #: Counter increase over the timed phase / value at its end.
    delta: dict[str, float]
    total: dict[str, float]
    spans: int
    tiers: dict[str, float]
    payload_bytes: int
    streamed_payload_bytes: int
    list_calls: int
    #: What the tracer's hook cost when this (traced) repetition ran.
    hook_cost: "layertrace.HookCost | None" = None

    @property
    def ops(self) -> float:
        return self.probe.ops or 1.0


def repetition(workload: Workload, seed: int, scratch: str,
               tracer: "layertrace.LayerTracer | None" = None) -> Repetition:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed, scratch)
    setup_s = time.perf_counter() - started
    try:
        probe = Probe()
        before = read_counters(state.grid)
        cpu = os.times()
        if tracer is not None:
            probe.tracer = tracer
            tracer.start()
        started = time.perf_counter()
        workload.run(state, probe)
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.stop()
        spent = os.times()
        total = read_counters(state.grid)
        workload.check(state, probe)
        if tracer is not None and workload.post is not None:
            workload.post(state, probe)
        return Repetition(
            setup_s=setup_s, wall_s=wall_s,
            user_s=spent.user - cpu.user, sys_s=spent.system - cpu.system,
            probe=probe,
            delta={k: total[k] - before[k] for k in total},
            total=total,
            spans=_span_count(state.grid),
            tiers=_tier_means(state.grid, probe.traced_jobs),
            payload_bytes=state.payload_bytes,
            streamed_payload_bytes=state.streamed_payload_bytes,
            list_calls=state.list_calls,
        )
    finally:
        for close in state.closers:
            close()


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _median(values) -> float:
    return float(statistics.median(values))


def _faster_half(items: list, key=None) -> list:
    return sorted(items, key=key)[: (len(items) + 1) // 2]


def _steady(values) -> float:
    """Median of the faster half of the timing samples.

    On a shared machine interference only ever slows a repetition, in
    bursts that hit several in a row; the faster half is what the
    program costs when left alone, and repeats far better between runs
    than the median of all samples.
    """
    return _median(_faster_half(list(values)))


#: Seconds :func:`calibration_loop` takes on the reference machine (the
#: 2-core sandbox this benchmark was recorded on, when quiet).
CALIBRATION_REFERENCE_S = 0.0360


def calibration_loop() -> float:
    """Seconds for a fixed piece of interpreter work.

    The sandbox's speed moves by up to 1.6x, slowly and in bursts (other
    tenants).  Timed metrics are scaled by reference / measured time of
    this loop, taken before every repetition of the same run, so they
    read as milliseconds on the reference machine and a drift of the
    whole machine does not look like a change of the program.  The
    scaling is approximate — interference does not slow all code alike —
    but in a bad hour it halved the spread between windows of eight
    repetitions (14 % to 8 %), and it never made it worse.
    """
    # The loop allocates; with the collector on it would now and then pay
    # for a walk over the previous repetition's whole grid.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(200_000):
            total += i * i
            table[i & 1023] = str(i)
        return time.perf_counter() - started
    finally:
        gc.enable()


@dataclass
class Run:
    """All repetitions of one run plus the machine-speed samples."""

    cold: Repetition
    reference: list[Repetition]
    traced: list[Repetition]
    calibration_s: list[float]

    @property
    def speed(self) -> float:
        """Factor that turns a measured time into reference-machine time."""
        return CALIBRATION_REFERENCE_S / _steady(self.calibration_s)

    @property
    def untraced_wall_s(self) -> float:
        return _steady(r.wall_s for r in self.reference)


def _latency_ms(run: Run, p: float) -> float:
    # Per repetition first: every repetition replays the same ops, so its
    # percentile is one sample of the same quantity.
    return _steady(
        percentile(sorted(r.probe.latencies_ms), p) for r in run.reference
    ) * run.speed


def end_to_end_metrics(workload: Workload, run: Run) -> dict:
    reps, speed = run.reference, run.speed
    wire = "socket_bytes" if workload.realtime else "wire_bytes"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _steady(r.setup_s for r in reps) * speed,
        "wall_ms_per_op": run.untraced_wall_s / reps[0].ops * 1e3 * speed,
        "latency_ms_p50": _latency_ms(run, 50),
        "peak_rss_mb": peak_rss_mb,
        "events_per_op": _median(r.delta["events"] / r.ops for r in reps),
        "requests_per_op": _median(
            r.delta["protocol.requests_sent"] / r.ops for r in reps
        ),
        "wire_bytes_per_op": _median(r.delta[wire] / r.ops for r in reps),
        # Set-up included: storage is a stock, and the history a restart
        # rereads or the jobs a monitor watches were written during set-up.
        "storage_bytes_per_op": _median(
            r.total["storage.bytes_written"] / r.ops for r in reps
        ),
        "sim_overhead_s_p50": _median(
            _median(r.probe.sim_overheads_s) for r in reps
        ),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(rep: Repetition, run: Run) -> dict:
    """Per-layer metrics of one traced repetition."""
    tracer, cost = rep.probe.tracer, rep.hook_cost
    assert tracer is not None and cost is not None
    ops, d, t, extra = rep.ops, rep.delta, rep.total, rep.probe.extra
    reference, speed = run.reference, run.speed
    out: dict[str, float] = {}
    corrected = tracer.corrected_self_s(cost, run.untraced_wall_s)
    for layer in M.TRACED_LAYERS:
        i = tracer.index[layer]
        out[f"{layer}.self_ms_per_op"] = corrected[i] / ops * 1e3 * speed
        out[f"{layer}.entries_per_op"] = tracer.entries[i] / ops

    def per_op(key: str) -> float:
        return d[key] / ops

    down = extra.get("download_self_s")
    out.update({
        "simkernel.peak_heap": t["peak_heap"],
        "net.messages_per_op": per_op("messages"),
        "net.stream.chunks_per_op": per_op("stream.chunks"),
        "net.stream.wire_over_payload": _ratio(
            d["stream.wire_bytes"], rep.streamed_payload_bytes
        ),
        "net.stream.resumes": d["stream.resumes"],
        "net.stream.upload_MiB_per_s": extra.get("upload_MiB_per_s", 0.0) / speed,
        "net.stream.download_MiB_per_s": extra.get("download_MiB_per_s", 0.0) / speed,
        "net.stream.download_self_share": (
            _ratio(down[tracer.index["net.stream"]], sum(down[1:]))
            if down else 0.0
        ),
        "net.aio_transport.frames_per_op": per_op("socket_frames"),
        "net.aio_transport.bytes_per_op": per_op("socket_bytes"),
        "protocol.retries_per_op": per_op("protocol.retries"),
        "protocol.consignment_bytes_per_op": per_op("consignment.bytes"),
        "server.gateway.requests_per_op": per_op("gateway.requests"),
        "server.gateway.subscribe_holds_per_op": per_op("gateway.subscribe_holds"),
        "server.njs.incarnations_per_op": per_op("njs.incarnations"),
        "server.njs.incarnation_cache_hit_ratio": _ratio(
            d["njs.incarnation_cache.hits"],
            d["njs.incarnation_cache.hits"] + d["njs.incarnation_cache.misses"],
        ),
        "server.njs.index_hit_ratio": _ratio(
            d["njs.index.hits"], d["gateway.requests"]
        ),
        "server.njs.journal_records_per_op": per_op("njs.journal.records"),
        "server.njs.forwarded_groups_per_op": per_op("njs.forwarded_groups"),
        "server.njs.transfer_bytes_per_op": per_op("njs.transfer_bytes"),
        "client.delta_view_ratio": _ratio(d["jmc.delta_views"], rep.list_calls),
        "client.latency_ms_p95": _latency_ms(run, 95),
        "storage.writes_per_op": per_op("storage.writes"),
        "storage.reads_per_op": per_op("storage.reads"),
        "storage.fsyncs_per_op": per_op("storage.fsyncs"),
        "storage.bytes_read_per_op": per_op("storage.bytes_read"),
        "storage.bytes_read_per_restart": extra.get("bytes_read_per_restart", 0.0),
        "storage.bytes_written_total": t["storage.bytes_written"],
        # File bodies where the workload has any, else the consigned AJOs.
        "storage.amplification": _ratio(
            t["storage.bytes_written"],
            rep.payload_bytes or t["consignment.bytes"],
        ),
        "storage.journal_records_total": t["njs.journal.records"],
        "storage.restart_s": _steady(
            r.probe.extra.get("restart_s", 0.0) for r in reference
        ) * speed,
        "storage.restored_read_ms_per_op": _steady(
            r.probe.extra.get("read_s", 0.0) / r.ops * 1e3 for r in reference
        ) * speed,
        "batch.submitted_per_op": per_op("batch.submitted"),
        "observability.spans_per_op": rep.spans / ops,
        "grid.snapshot_ms": extra.get("snapshot_ms", 0.0) * speed,
        "grid.thaw_ms": extra.get("thaw_ms", 0.0) * speed,
        "grid.snapshot_bytes": extra.get("snapshot_bytes", 0.0),
        "process.user_ms_per_op": _steady(r.user_s / r.ops * 1e3 for r in reference),
        "process.sys_ms_per_op": _steady(r.sys_s / r.ops * 1e3 for r in reference),
        "process.sys_share": _median(
            _ratio(r.sys_s, r.user_s + r.sys_s) for r in reference
        ),
        "process.cold_wall_ms_per_op": run.cold.wall_s / run.cold.ops * 1e3,
        "process.raw_wall_ms_per_op": run.untraced_wall_s / ops * 1e3,
        "process.calibration_ms": _steady(run.calibration_s) * 1e3,
        "trace.overhead_ratio": _ratio(rep.wall_s, run.untraced_wall_s),
    })
    out.update(rep.tiers)
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            out_dir: str, package_dir: str) -> dict:
    """One run of one workload; the dict the CLI prints and returns."""
    harness_dir = os.path.dirname(os.path.abspath(__file__))
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    calibration_s: list[float] = []

    def one(tracer: "layertrace.LayerTracer | None" = None) -> Repetition:
        calibration_s.extend(calibration_loop() for _ in range(2))
        return repetition(workload, seed, scratch, tracer)

    try:
        cold = one()
        del calibration_s[:]  # the cold process is not the steady machine
        started = time.perf_counter()

        def budget_left(done: int, until: float) -> bool:
            elapsed = time.perf_counter() - started
            # Stop once less than half an average repetition remains.
            return done == 0 or elapsed + 0.5 * elapsed / done < until

        reference: list[Repetition] = []
        reference_until = seconds * REFERENCE_SHARE if trace else seconds
        floor = 1 if trace else MIN_TIMED_REPETITIONS
        while len(reference) < floor or budget_left(len(reference), reference_until):
            reference.append(one())
        traced: list[Repetition] = []
        while trace and (not traced or budget_left(
                len(reference) + len(traced), seconds)):
            # Priced anew each time: the machine's speed drifts.
            cost = layertrace.calibrate(package_dir, harness_dir)
            traced.append(one(layertrace.LayerTracer(
                package_dir, harness_dir,
                op_codes=[fn.__code__ for fn in OP_FUNCTIONS],
            )))
            traced[-1].hook_cost = cost
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run = Run(cold, reference, traced, calibration_s)
    every = [cold, *reference, *traced]
    result = {
        "attempted": sum(r.probe.attempted for r in every),
        "failed": sum(r.probe.failed for r in every),
        "failures": [f for r in every for f in r.probe.failures][:10],
        "repetitions": len(reference),
        "traced_repetitions": len(traced),
        "ops_per_repetition": cold.ops,
        "latency_samples": len(cold.probe.latencies_ms),
        "wall_ms_per_op_samples": [r.wall_s / r.ops * 1e3 for r in reference],
        "machine_speed": run.speed,
    }
    if not trace:
        result["metrics"] = end_to_end_metrics(workload, run)
        return result
    per_rep = [per_layer_metrics(r, run) for r in traced]
    result["metrics"] = {
        m.name: _median(values[m.name] for values in per_rep) for m in M.PER_LAYER
    }
    last = traced[-1]
    assert last.hook_cost is not None
    report = last.probe.tracer.report(
        last.hook_cost, last.ops, run.untraced_wall_s
    )
    report["workload"] = workload.name
    report["seed"] = seed
    if "download_self_s" in last.probe.extra:
        report["download_phase_self_s_uncorrected"] = dict(zip(
            layertrace.LAYERS, last.probe.extra["download_self_s"], strict=True
        ))
    result["trace_report"] = report
    return result
