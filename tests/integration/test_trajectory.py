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
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
import types
from unittest import mock

import pytest

from repro import asn1
from repro.storage import backend

REPO =os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "benchmarks", "perf"))

import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRAJECTORY = os.path.join(REPO, "benchmarks", "trajectory.jsonl")
SEED = 11
GATED = tuple(m.name for m in metrics.END_TO_END if m.deterministic)


def measure(name: str) -> tuple[dict[str, float], harness.Repetition]:
    """One untimed repetition of workload ``name``: its counts, and the
    repetition (whose probe says whether the run was correct)."""
    workload = WORKLOADS[name]
    # Request and action ids come from per-process counters and ride the
    # wire and the store as text or varints: restart both, so no count
    # depends on what ran in this process before.
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch("repro.protocol.messages._request_ids", itertools.count(1)), \
            mock.patch("repro.ajo.actions._counter", itertools.count(1)):
        rep = harness.repetition(workload, SEED, scratch)
    run = harness.Run(rep, [rep], [], [harness.CALIBRATION_REFERENCE_S])
    end_to_end = harness.end_to_end_metrics(workload, run)
    counts = {metric: end_to_end[metric] for metric in GATED}
    for what in ("writes", "reads", "fsyncs"):
        counts[f"storage.{what}_per_op"] = rep.delta[f"storage.{what}"] / rep.ops
    counts["simkernel.peak_heap"] = rep.total["peak_heap"]
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


def _record(pr: int, commit: str) -> None:
    for name in sorted(WORKLOADS):
        counts, rep = measure(name)
        if rep.probe.failed:
            raise SystemExit(f"{name}: {rep.probe.failures}")
        line = {"pr": pr, "commit": commit, "workload": name, "seed": SEED, **counts}
        print(json.dumps(line))


if __name__ == "__main__":
    _record(int(sys.argv[1]), sys.argv[2])
