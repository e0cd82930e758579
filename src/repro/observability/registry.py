"""The committed vocabulary of metric and span names.

A typo'd metric name never crashes — ``counter("njs.incarntions")``
just mints a fresh counter that sits at zero while every dashboard,
benchmark gate, and test assertion reads the real one.  This registry
makes the name set a reviewed artifact: ``repro devlint`` (RD3xx)
extracts every ``counter("…")``/``histogram("…")``/span-name literal in
``src/repro`` and diffs it against these sets, in both directions —
an unregistered emitter is a lint error, and so is a registered name
with no emitter left.

Adding an instrument is therefore a two-line change on purpose: the
emitting call site and the registry entry land in the same diff, where
a reviewer sees the name once, spelled twice.

``*_PREFIXES`` hold the dynamic families — names completed at runtime
from a bounded enum (``faults.{kind}``, ``resilience.breaker_{state}``)
— which are matched by prefix.
"""

from __future__ import annotations

__all__ = [
    "COUNTERS",
    "COUNTER_PREFIXES",
    "HISTOGRAMS",
    "SPANS",
    "SPAN_PREFIXES",
    "known_counter",
    "known_histogram",
    "known_span",
]

#: Every static counter name the tree may increment.
COUNTERS: frozenset[str] = frozenset({
    # client-side static analysis + JPA/JMC
    "analysis.errors",
    "analysis.jobs_rejected",
    "analysis.warnings",
    "client.stale_status_serves",
    "jmc.delta_views",
    # public facade
    "api.failover_attempts",
    "api.failovers",
    "api.wait_retries",
    # batch tier
    "batch.node_failures",
    "batch.outages",
    "batch.submitted",
    # federation broker
    "broker.matches",
    "broker.rejections",
    "broker.steals",
    # consignment codec
    "consignment.bytes",
    "consignment.files",
    # fault injection + resilience
    "faults.injected",
    "faults.skipped",
    "resilience.breaker_rejections",
    # gateway
    "gateway.auth_failures",
    "gateway.crashes",
    "gateway.dropped_frames",
    "gateway.dropped_requests",
    "gateway.push_aborts",
    "gateway.requests",
    "gateway.restarts",
    "gateway.subscribe_holds",
    # NJS
    "njs.advertisements",
    "njs.crashes",
    "njs.dropped_peer_messages",
    "njs.forwarded_groups",
    "njs.incarnation_cache.hits",
    "njs.incarnation_cache.misses",
    "njs.incarnations",
    "njs.index.hits",
    "njs.index.rebuilds",
    "njs.journal.records",
    "njs.journal_replays",
    "njs.reclaimed_jobs",
    "njs.rejected_paths",
    "njs.replay_failures",
    "njs.restarts",
    "njs.restored_runs",
    "njs.task_resubmissions",
    "njs.task_retry_waits",
    "njs.transfer_bytes",
    # protocol client
    "protocol.requests_sent",
    "protocol.retries",
    # persistence layer
    "storage.blob.dedup_hits",
    "storage.bytes",
    "storage.bytes_read",
    "storage.fsyncs",
    "storage.reads",
    "storage.writes",
    # data plane
    "stream.bad_frames",
    "stream.completed",
    "stream.resumes",
    "stream.wire_bytes",
})

#: Dynamic counter families, completed at runtime from bounded enums.
COUNTER_PREFIXES: frozenset[str] = frozenset({
    "broker.",              # broker.{matches,steals,rejections} readback
    "faults.",              # faults.{FaultKind}
    "resilience.breaker_",  # resilience.breaker_{state}
})

#: Every histogram name the tree may observe into.
HISTOGRAMS: frozenset[str] = frozenset({
    "batch.execute_seconds",
    "batch.wait_seconds",
    "broker.queue_depth",
    "gateway.auth_seconds",
    "incarnation.script_bytes",
})

#: Every static span name the tracer may start.
SPANS: frozenset[str] = frozenset({
    "batch.execute",
    "batch.wait",
    "broker.dispatch",
    "broker.steal",
    "client.applet_load",
    "client.handshake",
    "client.outcome",
    "client.resource_pages",
    "client.submit",
    "gateway.auth",
    "gateway.request",
    "njs.analyze",
    "njs.consign",
    "njs.export",
    "njs.forward",
    "njs.import",
    "njs.incarnate",
    "njs.job",
    "njs.replay",
    "njs.resubmit",
    "njs.stage",
    "njs.transfer",
    "protocol.attempt",
    "protocol.interact",
    "session.failover",
    "stream.send",
})

#: Dynamic span families.
SPAN_PREFIXES: frozenset[str] = frozenset({
    "fault.",  # fault.{FaultKind}
})


def known_counter(name: str) -> bool:
    """True when ``name`` is a registered counter or family member."""
    return name in COUNTERS or any(
        name.startswith(p) for p in COUNTER_PREFIXES
    )


def known_histogram(name: str) -> bool:
    return name in HISTOGRAMS


def known_span(name: str) -> bool:
    return name in SPANS or any(name.startswith(p) for p in SPAN_PREFIXES)
