"""Unit tests for the perf-trajectory gate (benchmarks/compare_bench.py).

The gate is only useful if it provably fails on a regression, so the
core case here is a synthetic 2x restart-reads regression that must
exit nonzero, alongside the pass/improve/warn classifications and the
``--update`` re-baselining flow.
"""

import json
import os

from benchmarks.compare_bench import (
    FAIL_THRESHOLD,
    MetricSpec,
    compare_experiment,
    compare_metric,
    load_artifact,
    main,
    metric_value,
)

LOWER_FAIL = MetricSpec("history.long.reads", "lower", "fail")
LOWER_WARN = MetricSpec("history.long.restart_s", "lower", "warn")
HIGHER_FAIL = MetricSpec("jain_fairness", "higher", "fail")


def _e15(reads=100.0, bytes_read=1000.0, wall=0.01):
    """The gated slice of an E15 artifact: two counts and a wall time."""
    return {
        "experiment": "e15",
        "history": {
            "long": {
                "reads": reads,
                "journal_rows_decoded": 0.0,
                "bytes_read": bytes_read,
                "restart_s": wall,
            },
        },
    }


def _write(directory, name, payload):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"BENCH_{name}.json"), "w") as handle:
        json.dump(payload, handle)


# -- metric-level judgments -------------------------------------------------

def test_compare_metric_verdicts():
    # Identical -> ok; small drift within threshold -> ok.
    assert compare_metric(LOWER_FAIL, 100, 100) == ("ok", 0.0)
    assert compare_metric(LOWER_FAIL, 100, 120)[0] == "ok"
    # Better than baseline -> improved.
    assert compare_metric(LOWER_FAIL, 100, 50)[0] == "improved"
    # Past the threshold -> the spec's severity.
    assert compare_metric(LOWER_FAIL, 100, 200) == ("fail", 1.0)
    assert compare_metric(LOWER_WARN, 100, 200)[0] == "warn"
    # Direction-aware: a fairness *drop* is the costly direction.
    assert compare_metric(HIGHER_FAIL, 1.0, 0.5) == ("fail", 0.5)
    assert compare_metric(HIGHER_FAIL, 0.5, 1.0)[0] == "improved"
    # Zero baseline: any appearing cost is infinite regression.
    assert compare_metric(LOWER_FAIL, 0.0, 5.0)[0] == "fail"
    assert compare_metric(LOWER_FAIL, 0.0, 0.0)[0] == "ok"


def test_metric_value_dotted_paths():
    artifact = _e15(reads=42.0)
    assert metric_value(artifact, "history.long.reads") == 42.0
    assert metric_value(artifact, "history.missing") is None
    assert metric_value(artifact, "nope.deeper") is None


# -- experiment-level comparison --------------------------------------------

def test_synthetic_2x_regression_fails():
    baseline = _e15(reads=100.0)
    regressed = _e15(reads=200.0)  # 2x the reads per restart
    rows = compare_experiment("e15", baseline, regressed)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["history.long.reads"]["verdict"] == "fail"
    assert by_metric["history.long.reads"]["change"] == 1.0


def test_wall_clock_regression_only_warns():
    baseline = _e15(wall=0.01)
    slower = _e15(wall=0.05)  # 5x wall time, counters unchanged
    rows = compare_experiment("e15", baseline, slower)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["history.long.restart_s"]["verdict"] == "warn"
    assert all(
        row["verdict"] != "fail" for row in rows
    ), "wall clock must never hard-fail"


def test_missing_artifacts_warn_not_fail():
    rows = compare_experiment("e15", None, _e15())
    assert rows[0]["verdict"] == "warn" and "baseline" in rows[0]["note"]
    rows = compare_experiment("e15", _e15(), None)
    assert rows[0]["verdict"] == "warn" and "fresh" in rows[0]["note"]


# -- CLI entry point --------------------------------------------------------

def test_main_passes_on_baseline_and_fails_on_regression(tmp_path, capsys):
    baselines = str(tmp_path / "baselines")
    fresh = str(tmp_path / "fresh")
    _write(baselines, "e15", _e15(reads=100.0))
    _write(fresh, "e15", _e15(reads=100.0))

    # Baseline vs itself: clean pass.
    assert main(["--fresh", fresh, "--baselines", baselines, "e15"]) == 0
    assert "pass" in capsys.readouterr().out

    # Synthetic 2x regression: the gate exits nonzero.
    _write(fresh, "e15", _e15(reads=200.0))
    assert main(["--fresh", fresh, "--baselines", baselines, "e15"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "history.long.reads" in out

    # A custom (huge) threshold lets the same numbers through.
    assert main([
        "--fresh", fresh, "--baselines", baselines,
        "--threshold", "2.0", "e15",
    ]) == 0
    capsys.readouterr()


def test_main_refuses_artifacts_of_unlike_runs(tmp_path, capsys):
    baselines = str(tmp_path / "baselines")
    fresh = str(tmp_path / "fresh")
    full = {**_e15(), "smoke": False, "params": {"jobs": 20}}
    _write(baselines, "e15", full)
    for unlike in ({"smoke": True}, {"params": {"jobs": 5}}):
        _write(fresh, "e15", {**full, **unlike})
        assert main(["--fresh", fresh, "--baselines", baselines]) == 2
        captured = capsys.readouterr()
        (key,) = unlike
        assert captured.err.startswith("compare_bench: e15:") and key in captured.err
        assert captured.err.count("\n") == 1 and "gate" not in captured.out
    _write(fresh, "e15", full)
    assert main(["--fresh", fresh, "--baselines", baselines]) == 0
    capsys.readouterr()


def test_main_update_blesses_fresh_artifacts(tmp_path, capsys):
    baselines = str(tmp_path / "baselines")
    fresh = str(tmp_path / "fresh")
    _write(baselines, "e15", _e15(reads=100.0))
    _write(fresh, "e15", _e15(reads=200.0))

    assert main([
        "--fresh", fresh, "--baselines", baselines, "--update", "e15",
    ]) == 0
    capsys.readouterr()
    assert load_artifact(baselines, "e15")["history"]["long"]["reads"] == 200.0
    # After blessing, the former regression is the new normal.
    assert main(["--fresh", fresh, "--baselines", baselines, "e15"]) == 0
    capsys.readouterr()


def test_committed_baselines_carry_gated_metrics():
    """The real committed baselines must expose every gated metric —
    otherwise the CI gate silently degrades to warnings."""
    from benchmarks.compare_bench import BASELINE_DIR, METRIC_SPECS

    for experiment, specs in METRIC_SPECS.items():
        artifact = load_artifact(BASELINE_DIR, experiment)
        assert artifact is not None, f"missing committed BENCH_{experiment}.json"
        for spec in specs:
            assert metric_value(artifact, spec.path) is not None, (
                experiment, spec.path,
            )
    # The six-site replay and the real-socket arm are measured by
    # benchmarks/perf; no legacy-poll baseline is left to compare with.
    assert set(METRIC_SPECS) == {"e11", "e15"}
    assert FAIL_THRESHOLD == 0.25
