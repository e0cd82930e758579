"""Every metric the benchmark reports, declared once.

``BENCHMARK.json`` is generated from these tables (``run.py --manifest``)
and ``selfcheck`` fails when the two drift apart.  The README holds the
prose: what each name means and which end-to-end metric each layer
metric should move on which workload.
"""

from __future__ import annotations

import typing

LOWER, HIGHER = "lower", "higher"


class EndToEnd(typing.NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    #: True when the value is a count that repeats exactly for one seed
    #: on the sim transport.
    deterministic: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", LOWER, 0.25),
    EndToEnd("wall_ms_per_op", "ms", LOWER, 0.25),
    EndToEnd("latency_ms_p50", "ms", LOWER, 0.25),
    EndToEnd("peak_rss_mb", "MB", LOWER, 0.05),
    EndToEnd("events_per_op", "count", LOWER, 0.03, True),
    EndToEnd("requests_per_op", "count", LOWER, 0.02, True),
    EndToEnd("wire_bytes_per_op", "bytes", LOWER, 0.02, True),
    EndToEnd("storage_bytes_per_op", "bytes", LOWER, 0.02, True),
    EndToEnd("sim_overhead_s_p50", "sim-s", LOWER, 0.02, True),
)

#: Layers whose self time and entry count the traced run reports; the
#: names are the ``repro`` package names (see ``layertrace.LAYER_RULES``).
#: ``broker`` is mapped by the tracer but not listed: no workload
#: late-binds jobs, so it would be zero everywhere — a dead metric.
TRACED_LAYERS: tuple[str, ...] = (
    "simkernel", "net.sim_transport", "net.aio_transport", "net.wire",
    "net.stream", "net.https", "security", "ajo", "resources", "vfs",
    "batch", "protocol", "server.gateway", "server.njs", "client", "api",
    "storage.codec", "storage.backend", "storage.journal", "analysis",
    "observability", "grid",
)


class PerLayer(typing.NamedTuple):
    name: str
    unit: str
    better: str
    #: Exempt from the dead-metric guard (needs injected faults to move).
    fault_only: bool = False


def _layer_metrics() -> list[PerLayer]:
    out = []
    for layer in TRACED_LAYERS:
        out.append(PerLayer(f"{layer}.self_ms_per_op", "ms", LOWER))
        out.append(PerLayer(f"{layer}.entries_per_op", "count", LOWER))
    return out


PER_LAYER: tuple[PerLayer, ...] = tuple(_layer_metrics()) + (
    PerLayer("simkernel.peak_heap", "count", LOWER),
    PerLayer("net.messages_per_op", "count", LOWER),
    PerLayer("net.stream.chunks_per_op", "count", LOWER),
    PerLayer("net.stream.wire_over_payload", "ratio", LOWER),
    PerLayer("net.stream.resumes", "count", LOWER, fault_only=True),
    PerLayer("net.stream.upload_MiB_per_s", "MiB/s", HIGHER),
    PerLayer("net.stream.download_MiB_per_s", "MiB/s", HIGHER),
    PerLayer("net.stream.download_self_share", "ratio", LOWER),
    PerLayer("net.aio_transport.frames_per_op", "count", LOWER),
    PerLayer("net.aio_transport.bytes_per_op", "bytes", LOWER),
    PerLayer("protocol.retries_per_op", "count", LOWER, fault_only=True),
    PerLayer("protocol.consignment_bytes_per_op", "bytes", LOWER),
    PerLayer("server.gateway.requests_per_op", "count", LOWER),
    PerLayer("server.gateway.subscribe_holds_per_op", "count", LOWER),
    PerLayer("server.njs.incarnations_per_op", "count", LOWER),
    PerLayer("server.njs.incarnation_cache_hit_ratio", "ratio", HIGHER),
    PerLayer("server.njs.index_hit_ratio", "ratio", HIGHER),
    PerLayer("server.njs.journal_records_per_op", "count", LOWER),
    PerLayer("server.njs.forwarded_groups_per_op", "count", LOWER),
    PerLayer("server.njs.transfer_bytes_per_op", "bytes", LOWER),
    PerLayer("client.delta_view_ratio", "ratio", HIGHER),
    PerLayer("client.latency_ms_p95", "ms", LOWER),
    PerLayer("storage.writes_per_op", "count", LOWER),
    PerLayer("storage.reads_per_op", "count", LOWER),
    PerLayer("storage.fsyncs_per_op", "count", LOWER),
    PerLayer("storage.bytes_read_per_op", "bytes", LOWER),
    PerLayer("storage.bytes_read_per_restart", "bytes", LOWER),
    PerLayer("storage.bytes_written_total", "bytes", LOWER),
    PerLayer("storage.amplification", "ratio", LOWER),
    PerLayer("storage.journal_records_total", "count", LOWER),
    PerLayer("storage.restart_s", "s", LOWER),
    PerLayer("storage.restored_read_ms_per_op", "ms", LOWER),
    PerLayer("batch.submitted_per_op", "count", LOWER),
    PerLayer("observability.spans_per_op", "count", LOWER),
    PerLayer("grid.snapshot_ms", "ms", LOWER),
    PerLayer("grid.thaw_ms", "ms", LOWER),
    PerLayer("grid.snapshot_bytes", "bytes", LOWER),
    PerLayer("client.consign_sim_ms", "sim-ms", LOWER),
    PerLayer("server.gateway.auth_sim_ms", "sim-ms", LOWER),
    PerLayer("server.njs.incarnation_sim_ms", "sim-ms", LOWER),
    PerLayer("server.njs.staging_sim_s", "sim-s", LOWER),
    PerLayer("batch.wait_sim_s", "sim-s", LOWER),
    PerLayer("client.outcome_return_sim_ms", "sim-ms", LOWER),
    PerLayer("process.user_ms_per_op", "ms", LOWER),
    PerLayer("process.sys_ms_per_op", "ms", LOWER),
    PerLayer("process.sys_share", "ratio", LOWER),
    PerLayer("process.cold_wall_ms_per_op", "ms", LOWER),
    PerLayer("process.raw_wall_ms_per_op", "ms", LOWER),
    PerLayer("process.calibration_ms", "ms", LOWER),
    PerLayer("trace.overhead_ratio", "ratio", LOWER),
)

RUN_SECONDS = 10


def manifest(workloads) -> dict:
    """The content of ``BENCHMARK.json`` for these workloads."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
