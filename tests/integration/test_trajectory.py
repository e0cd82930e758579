"""The count gate: every benchmark workload's deterministic counts, held to
the last line ``benchmarks/trajectory.jsonl`` records for it.

Timed metrics move 5-25 % between runs of the same code on a shared
machine; the counts do not.  Each workload runs one untimed repetition at seed 11 through the
benchmark's own ``harness.repetition``, and the five end-to-end counts
come from ``harness.end_to_end_metrics`` — the numbers the benchmark
reports, not a second derivation of them.  A count that leaves its
``BENCHMARK.json`` bound, in either direction, fails.  A change that moves
a count on purpose appends one line per workload in the same diff::

    PYTHONPATH=src python -m tests.integration.test_trajectory PR COMMIT \\
        >> benchmarks/trajectory.jsonl

The storage write / read / fsync counts per op and the simulator's peak
queue size are recorded beside them, not gated.

Five per-op averages can stay equal while messages reorder or a row
changes shape, so a line may also hold a ``digest``: SHA-256 over every
message delivered to a host, in order (sim time, sender, recipient,
payload type, request kind and wire size, and a request's or reply's
payload bytes, ``ok`` and ``error``), then over the final storage dump
(every table row, every blob's digest and refcount).  Queue entries are
not hashed, so dropping entries nobody observes keeps it; when the last
line holds one, the gate compares it exactly.  ``realsocket`` is hashed
too: its frames cross real sockets, but the simulated clock stands still
while one is in flight, and separate runs agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import json
import os
import sys
import tempfile
import types
from unittest import mock

import pytest

from repro import asn1
from repro.net.sim_transport import Host
from repro.protocol.messages import Reply, Request
from repro.server import gateway
from repro.simkernel import Simulator
from repro.storage import backend

REPO =os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "perf"))

import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRAJECTORY = os.path.join(REPO, "benchmarks", "trajectory.jsonl")
SEED = 11
GATED = tuple(m.name for m in metrics.END_TO_END if m.deterministic)


class Digest:
    """SHA-256 over what a run delivered and what it left in storage."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def _field(self, value: object) -> None:
        data = value if isinstance(value, bytes) else repr(value).encode()
        self._hash.update(len(data).to_bytes(8, "big") + data)

    def delivered(self, now: float, message) -> None:
        payload = message.payload
        for value in (now, message.sender, message.recipient,
                      type(payload).__name__, getattr(payload, "kind", ""),
                      message.size_bytes):
            self._field(value)
        if isinstance(payload, (Request, Reply)):
            self._field(payload.payload)
        if isinstance(payload, Reply):
            self._field(payload.ok)
            self._field(payload.error)

    def stored(self, dump: dict) -> None:
        for table, rows in sorted(dump["tables"].items()):
            self._field(table)
            for key, value in sorted(rows.items()):
                self._field(key)
                self._field(asn1.encode(value))
        for digest, blob in sorted(dump["blobs"].items()):
            self._field(digest)
            self._field(blob["refs"])

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def measure(name: str) -> tuple[dict[str, float], harness.Repetition]:
    """One untimed repetition of workload ``name``: its counts and
    ``digest``, and the repetition (whose probe says whether the run was
    correct)."""
    workload = WORKLOADS[name]
    digest = Digest()
    deliver = Host._deliver

    def delivered(host, message):
        digest.delivered(host.sim.now, message)
        deliver(host, message)

    def check(state, probe):
        workload.check(state, probe)
        digest.stored(state.grid.storage.dump())

    # Request and action ids come from per-process counters and ride the
    # wire and the store as text or varints: restart both, so no count
    # depends on what ran in this process before.
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch("repro.protocol.messages._request_ids", itertools.count(1)), \
            mock.patch("repro.ajo.actions._counter", itertools.count(1)), \
            mock.patch.object(Host, "_deliver", delivered):
        rep = harness.repetition(
            dataclasses.replace(workload, check=check), SEED, scratch
        )
    run = harness.Run(rep, [rep], [], [harness.CALIBRATION_REFERENCE_S])
    end_to_end = harness.end_to_end_metrics(workload, run)
    counts: dict = {metric: end_to_end[metric] for metric in GATED}
    for what in ("writes", "reads", "fsyncs"):
        counts[f"storage.{what}_per_op"] = rep.delta[f"storage.{what}"] / rep.ops
    counts["simkernel.peak_heap"] = rep.total["peak_heap"]
    counts["digest"] = digest.hexdigest()
    return counts, rep


def _bounds() -> dict[str, float]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    return {metric: declared[metric] for metric in GATED}


def last_line(name: str) -> dict:
    with open(TRAJECTORY) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    mine = [line for line in lines if line["workload"] == name and line["seed"] == SEED]
    assert mine, f"{TRAJECTORY} has no line for {name} at seed {SEED}"
    return mine[-1]


def problems(name: str, counts: dict[str, float]) -> list[str]:
    """Each gated count that left its bound against the last line."""
    recorded = last_line(name)
    found = []
    for metric, bound in _bounds().items():
        was, now = recorded[metric], counts[metric]
        if abs(now - was) > bound * abs(was):
            found.append(
                f"{name}: {metric} moved from {was!r} (PR {recorded['pr']}) to "
                f"{now!r}, beyond its {bound:.0%} bound; a move made on purpose "
                "appends a line to benchmarks/trajectory.jsonl in the same diff"
            )
    if "digest" in recorded and counts.get("digest") != recorded["digest"]:
        found.append(
            f"{name}: the digest of its messages and storage moved from "
            f"{recorded['digest']} (PR {recorded['pr']}) to "
            f"{counts.get('digest')}; a change made on purpose appends a line "
            "to benchmarks/trajectory.jsonl in the same diff"
        )
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_stay_on_the_trajectory(name):
    counts, rep = measure(name)
    assert rep.probe.failed == 0, rep.probe.failures
    found = problems(name, counts)
    assert not found, "\n".join(found)


def test_the_gate_fails_a_larger_stored_row(monkeypatch):
    """Every row 30 % larger (the value stored beside its padding, so every
    reader still gets the value back): the run stays correct and the gate
    names the one count that moved."""

    def padded(value):
        data = asn1.encode(value)
        return asn1.encode([value, bytes(3 * len(data) // 10)])

    def unpadded(data, error):
        return asn1.decode(data, error)[0]

    monkeypatch.setattr(
        backend, "asn1", types.SimpleNamespace(encode=padded, decode=unpadded)
    )
    counts, rep = measure("smalljobs")
    assert rep.probe.failed == 0, rep.probe.failures
    (found,) = problems("smalljobs", counts)
    assert found.startswith("smalljobs: storage_bytes_per_op moved from ")
    assert "appends a line to benchmarks/trajectory.jsonl" in found


def test_the_digest_fails_a_reply_changed_in_one_byte(monkeypatch):
    """One status reply's colour field spelled with a capital (same size,
    nobody reads it): the run stays correct and every count stays put,
    but the digest moves."""
    changed = []

    def recoloured(**fields):
        payload = fields.get("payload", b"")
        if not changed and b"green" in payload:
            fields["payload"] = payload.replace(b"green", b"greeN", 1)
            changed.append(fields["request_id"])
        return Reply(**fields)

    monkeypatch.setattr(gateway, "Reply", recoloured)
    counts, rep = measure("smalljobs")
    assert rep.probe.failed == 0, rep.probe.failures
    assert changed
    (found,) = problems("smalljobs", counts)
    assert found.startswith("smalljobs: the digest of its messages and storage")


def test_the_digest_fails_two_same_instant_entries_swapped(monkeypatch):
    """The first two queue entries due at one instant leave the queue in
    the other order: in ``replay`` those are two sessions' upload streams
    resuming together, so their jobs consign in the other order and swap
    identifiers.  Every message is still delivered at the same time with
    the same size, and the run stays correct: all five counts equal the
    last line's exactly, so a gate of counts alone passes, and the digest
    fails.  (No two deliveries share an instant in any workload at this
    seed, so a swapped tie is a reorder one step before delivery.)"""
    swapped = []
    step = Simulator.step

    def swapping(sim):
        queue = sim._queue
        if not swapped and len(queue) > 1:
            when, seq, first = heapq.heappop(queue)
            if queue[0][0] == when:
                _, tie, second = heapq.heappop(queue)
                heapq.heappush(queue, (when, seq, second))
                heapq.heappush(queue, (when, tie, first))
                swapped.append(when)
            else:
                heapq.heappush(queue, (when, seq, first))
        step(sim)

    monkeypatch.setattr(Simulator, "step", swapping)
    counts, rep = measure("replay")
    assert rep.probe.failed == 0, rep.probe.failures
    assert len(swapped) == 1
    recorded = last_line("replay")
    assert {metric: counts[metric] for metric in GATED} == {
        metric: recorded[metric] for metric in GATED
    }
    (found,) = problems("replay", counts)
    assert found.startswith("replay: the digest of its messages and storage")


def _record(pr: int, commit: str) -> None:
    for name in sorted(WORKLOADS):
        counts, rep = measure(name)
        if rep.probe.failed:
            raise SystemExit(f"{name}: {rep.probe.failures}")
        line = {"pr": pr, "commit": commit, "workload": name, "seed": SEED, **counts}
        print(json.dumps(line))


if __name__ == "__main__":
    _record(int(sys.argv[1]), sys.argv[2])
