"""Perf-trajectory gate: diff fresh BENCH_*.json against committed baselines.

The committed baselines under ``benchmarks/baselines/`` record the
numbers no ``benchmarks/perf`` workload carries: E11's fairness across
users and E15's write amplification and restart reads against history.
(The six-site replay and the real-socket arm are measured by the perf
suite's ``replay`` and ``realsocket`` workloads; their E10 / E12 smokes
run in CI as crash gates only.)  CI regenerates fresh artifacts on every
push and this module compares them metric by metric:

* **fail** metrics (deterministic counts such as storage reads per
  restart, or the fairness index) hard-fail the build when they regress
  by more than :data:`FAIL_THRESHOLD` (25%) past the baseline.
* **warn** metrics (wall-clock derived, machine-dependent) only print a
  warning — CI runners are too noisy for wall time to gate merges.

A fresh artifact is only comparable with a baseline of the same run: a
pair whose ``smoke`` flag or ``params`` differ is refused (exit 2), so
the baselines are the ``--smoke`` artifacts CI regenerates.

Re-baselining: after an *intentional* change to the cost profile (a new
protocol feature, a deliberate trade-off), regenerate the artifacts as
CI does and bless them::

    REPRO_BENCH_DIR=/tmp/fresh python -m benchmarks.bench_e11_broker_ablation --smoke
    REPRO_BENCH_DIR=/tmp/fresh python -m benchmarks.bench_e15_persistence --smoke
    python -m benchmarks.compare_bench --fresh /tmp/fresh --update

then commit the updated ``benchmarks/baselines/*.json`` with a sentence
in the PR explaining why the trajectory moved.

Usage::

    python -m benchmarks.compare_bench --fresh <dir-with-fresh-artifacts>
    python -m benchmarks.compare_bench --fresh <dir> --update   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import typing

__all__ = [
    "MetricSpec",
    "METRIC_SPECS",
    "FAIL_THRESHOLD",
    "CompareBenchError",
    "load_artifact",
    "metric_value",
    "compare_metric",
    "compare_experiment",
    "main",
]


class CompareBenchError(Exception):
    """A gate input is unusable (a corrupt artifact, one asked for by
    name and missing, a fresh / baseline pair from unlike runs).

    ``main`` turns this into a one-line message and exit code 2 — the
    gate must never die with a traceback on a bad input, because a
    traceback reads as "the tooling is broken" when the actual story is
    "your artifact is broken".
    """

#: Relative regression past the baseline that hard-fails the gate.
FAIL_THRESHOLD = 0.25

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")


class MetricSpec(typing.NamedTuple):
    """One gated metric: where it lives and how it is judged."""

    path: str  #: dotted path into the artifact, e.g. "history.long.reads"
    direction: str  #: "lower" or "higher" is better
    severity: str  #: "fail" gates the build, "warn" only prints


#: Per-experiment gate definitions.  Counter-derived metrics fail the
#: build; wall-clock metrics warn only (CI runners are noisy).
METRIC_SPECS: dict[str, tuple[MetricSpec, ...]] = {
    "e11": (
        MetricSpec("jain_fairness", "higher", "fail"),
        MetricSpec("makespan_federated_s", "lower", "warn"),
    ),
    # E15's near-empty-job arm is warn-only per the persistence
    # acceptance criteria: the wall-time metrics are machine-dependent,
    # and amplification against AJO bytes shifts legitimately whenever
    # the journal record shapes evolve.  The large-file arm's counters
    # gate: its amplification is against payload bytes, and a file body
    # written more than once is the regression the blob table removed.
    "e15": (
        MetricSpec("sqlite.write_amplification", "lower", "warn"),
        MetricSpec("sqlite.fsyncs_per_job", "lower", "warn"),
        MetricSpec("sqlite.snapshot_s", "lower", "warn"),
        MetricSpec("sqlite.restore_s", "lower", "warn"),
        MetricSpec("largefile.write_amplification", "lower", "fail"),
        MetricSpec("largefile.fsyncs_per_job", "lower", "fail"),
        MetricSpec("largefile.snapshot_s", "lower", "warn"),
        MetricSpec("largefile.restore_s", "lower", "warn"),
        # The history arm's counts gate: a cold start over 200 finished
        # jobs reads what one over 50 reads, plus one outcome row each.
        MetricSpec("history.long.reads", "lower", "fail"),
        MetricSpec("history.long.journal_rows_decoded", "lower", "fail"),
        MetricSpec("history.long.bytes_read", "lower", "fail"),
        MetricSpec("history.long.restart_s", "lower", "warn"),
    ),
}


def load_artifact(directory: str, experiment: str) -> dict | None:
    """Read ``BENCH_<experiment>.json`` from ``directory`` (None if absent).

    Raises :class:`CompareBenchError` when the file exists but cannot be
    read or parsed — a half-written artifact must fail loudly, not be
    mistaken for "bench did not run".
    """
    path = os.path.join(directory, f"BENCH_{experiment}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise CompareBenchError(
            f"cannot read artifact {path}: {err}"
        ) from None
    if not isinstance(data, dict):
        raise CompareBenchError(
            f"artifact {path} is not a JSON object "
            f"(got {type(data).__name__})"
        )
    return data


def metric_value(artifact: dict, dotted: str) -> float | None:
    """Resolve a dotted path ("throughput.events_per_job") to a number."""
    node: object = artifact
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def compare_metric(
    spec: MetricSpec, baseline: float, fresh: float,
    threshold: float = FAIL_THRESHOLD,
) -> tuple[str, float]:
    """Judge one metric; returns ``(verdict, relative_change)``.

    ``relative_change`` is signed in the *bad* direction: +0.30 means
    30% worse than baseline, -0.50 means 50% better.  Verdicts: ``ok``,
    ``improved``, ``warn`` (past threshold on a warn metric), ``fail``.
    """
    if baseline == 0:
        # No baseline signal; only flag appearing-from-zero costs.
        change = 0.0 if fresh == 0 else float("inf")
    else:
        change = (fresh - baseline) / abs(baseline)
    if spec.direction == "higher":
        change = -change
    if change > threshold:
        return (spec.severity, change)
    if change < 0:
        return ("improved", change)
    return ("ok", change)


def compare_experiment(
    experiment: str,
    baseline: dict | None,
    fresh: dict | None,
    threshold: float = FAIL_THRESHOLD,
) -> list[dict]:
    """Compare all gated metrics of one experiment.

    Returns one row per metric: ``{metric, verdict, baseline, fresh,
    change}``.  Missing artifacts yield a single ``missing-baseline`` /
    ``missing-fresh`` row with verdict ``warn`` (a gate that silently
    skips is not a gate, but absence should not brick unrelated PRs).
    Raises :class:`CompareBenchError` on a pair from unlike runs.
    """
    if fresh is None:
        return [{"metric": "<artifact>", "verdict": "warn",
                 "note": f"no fresh BENCH_{experiment}.json — bench did not run"}]
    if baseline is None:
        return [{"metric": "<artifact>", "verdict": "warn",
                 "note": f"no committed baseline for {experiment} — "
                         "run compare_bench --update to create one"}]
    for key in ("smoke", "params"):
        if baseline.get(key) != fresh.get(key):
            raise CompareBenchError(
                f"{experiment}: fresh and baseline artifacts are not the "
                f"same run: {key} is {fresh.get(key)!r} against "
                f"{baseline.get(key)!r}"
            )
    rows = []
    for spec in METRIC_SPECS[experiment]:
        base_v = metric_value(baseline, spec.path)
        fresh_v = metric_value(fresh, spec.path)
        if base_v is None or fresh_v is None:
            rows.append({"metric": spec.path, "verdict": "warn",
                         "note": "metric missing from artifact"})
            continue
        verdict, change = compare_metric(spec, base_v, fresh_v, threshold)
        rows.append({
            "metric": spec.path, "verdict": verdict,
            "baseline": base_v, "fresh": fresh_v, "change": change,
        })
    return rows


def _print_rows(experiment: str, rows: list[dict]) -> None:
    print(f"{experiment}:")
    for row in rows:
        if "note" in row:
            print(f"  [{row['verdict'].upper():>8}] {row['metric']}: {row['note']}")
            continue
        arrow = f"{row['change']:+.1%}" if row["change"] != float("inf") else "+inf"
        print(
            f"  [{row['verdict'].upper():>8}] {row['metric']}: "
            f"{row['baseline']:.6g} -> {row['fresh']:.6g} ({arrow} "
            f"in the costly direction)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--fresh", default=".", help="directory holding fresh BENCH_*.json"
    )
    parser.add_argument(
        "--baselines", default=BASELINE_DIR,
        help="directory holding committed baselines",
    )
    parser.add_argument(
        "--threshold", type=float, default=FAIL_THRESHOLD,
        help="relative regression that fails the gate (default 0.25)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="bless the fresh artifacts as the new committed baselines",
    )
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help="experiments to compare (default: all with gate specs)",
    )
    opts = parser.parse_args(argv)
    # Explicitly-named experiments tighten the contract: the caller
    # asserted these artifacts exist, so absence is a failure rather
    # than the default-mode "bench did not run" warning.
    explicit = bool(opts.experiments)
    experiments = opts.experiments or sorted(METRIC_SPECS)
    unknown = [e for e in experiments if e not in METRIC_SPECS]
    if unknown:
        print(
            f"compare_bench: unknown experiment(s) {', '.join(unknown)}; "
            f"gated experiments are: {', '.join(sorted(METRIC_SPECS))}",
            file=sys.stderr,
        )
        return 2

    if opts.update:
        os.makedirs(opts.baselines, exist_ok=True)
        for experiment in experiments:
            src = os.path.join(opts.fresh, f"BENCH_{experiment}.json")
            if not os.path.exists(src):
                print(f"{experiment}: nothing to bless ({src} missing)")
                continue
            dst = os.path.join(opts.baselines, f"BENCH_{experiment}.json")
            shutil.copyfile(src, dst)
            print(f"{experiment}: baseline updated from {src}")
        return 0

    failed = False
    for experiment in experiments:
        try:
            baseline = load_artifact(opts.baselines, experiment)
            fresh = load_artifact(opts.fresh, experiment)
            if explicit and (baseline is None or fresh is None):
                which = "baseline" if baseline is None else "fresh"
                where = opts.baselines if baseline is None else opts.fresh
                raise CompareBenchError(
                    f"{experiment} was requested explicitly but its {which} "
                    f"artifact BENCH_{experiment}.json is missing from {where}"
                )
            rows = compare_experiment(
                experiment, baseline, fresh, threshold=opts.threshold,
            )
        except CompareBenchError as err:
            print(f"compare_bench: {err}", file=sys.stderr)
            return 2
        _print_rows(experiment, rows)
        failed = failed or any(row["verdict"] == "fail" for row in rows)
    if failed:
        print("perf-trajectory gate: FAIL (see rows above)")
        return 1
    print("perf-trajectory gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
