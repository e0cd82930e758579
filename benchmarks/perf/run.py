#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

One workload, one process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/perf/run.py --workload replay --seed 11 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a repetition run under the layer tracer
(and writes ``<out>/trace-<workload>.json``).

Without ``--workload`` it runs the whole suite, each workload in its own
subprocess (fresh heap, attributable peak RSS, ``PYTHONHASHSEED=0``)::

    python3 benchmarks/perf/run.py [--seed N] [--trace] [--repeat-check]

``--trace`` adds the traced suite and the dead-metric and separation
guards; ``--repeat-check`` runs the untraced suite twice and requires the
two to agree.  See README.md in this directory for every name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
DEFAULT_OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 11

sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import selfcheck  # noqa: E402

#: Layer shares the traced suite must show, so the workloads keep
#: separating the layers: (workload, layers, "min" | "max", share of the
#: summed layer self time).  They describe the split at the commit that
#: recorded them; a change that moves a share on purpose re-records this
#: table in a benchmark-only change of its own.
SEPARATION = (
    ("replay", ("storage.codec",), "min", 0.40),
    ("smalljobs", ("storage.codec",), "max", 0.10),
    ("smalljobs", ("net.stream",), "max", 0.02),
    ("smalljobs", ("simkernel", "server.njs", "ajo"), "min", 0.30),
    ("monitor", ("simkernel", "server.gateway", "protocol", "security"),
     "min", 0.30),
    ("restart", ("storage.codec", "storage.backend", "storage.journal"),
     "min", 0.40),
)
SOCKET_LAYERS = ("net.aio_transport", "net.wire")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS,
                        help="measuring time per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced suite twice and compare")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for trace-*.json and results.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json these sources declare")
    return parser.parse_args(argv)


def _import_workloads():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"run.py: no program to measure: {SRC}/repro is missing"
        )
    sys.path.insert(0, SRC)
    import workloads

    return workloads.WORKLOADS


# ------------------------------------------------------- one workload
def run_one(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ between runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    workloads = _import_workloads()
    if args.workload not in workloads:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    import harness

    os.makedirs(args.out, exist_ok=True)
    result = harness.measure(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace),
        args.out, os.path.join(SRC, "repro"),
    )
    report = result.pop("trace_report", None)
    if report is not None:
        path = os.path.join(args.out, f"trace-{args.workload}.json")
        with open(path, "w") as fh:
            json.dump(report, fh)
        print(f"# trace written to {os.path.relpath(path)}")
    units = {m.name: m.unit for m in (*M.END_TO_END, *M.PER_LAYER)}
    print(f"# {args.workload} seed={args.seed}, one op = "
          f"{workloads[args.workload].op}: "
          f"{result['repetitions']} timed + {result['traced_repetitions']} "
          f"traced repetitions of {result['ops_per_repetition']:g} ops, "
          f"{result['latency_samples']} latency samples each, "
          f"{result['failed']}/{result['attempted']} ops failed")
    print("# measured wall ms/op per timed repetition: "
          + " ".join(f"{x:.4g}" for x in result["wall_ms_per_op_samples"]))
    print(f"# machine speed vs reference: {result['machine_speed']:.3f} "
          "(timed metrics are scaled by it)")
    for failure in result["failures"]:
        print(f"# failed: {failure}")
    for name, value in result["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


# ---------------------------------------------------------- the suite
def _child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", args.out,
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=900,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py: {workload} exited {done.returncode}")
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def run_suite_once(args, names, trace: int) -> dict[str, dict]:
    results = {}
    for name in names:
        print(f"== {name} ({'traced' if trace else 'untraced'}) ==", flush=True)
        results[name] = _child(name, args, trace)
    return results


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def guard_problems(traced: dict[str, dict], out_dir: str) -> list[str]:
    """Dead metrics and lost separation between the workloads."""
    problems = []
    for metric in M.PER_LAYER:
        if metric.fault_only:
            continue
        if all(not _value(r, metric.name) for r in traced.values()):
            problems.append(f"dead metric: {metric.name} is zero on every workload")

    def share(workload: str, layers) -> float:
        total = sum(_value(traced[workload], f"{layer}.self_ms_per_op")
                    for layer in M.TRACED_LAYERS)
        part = sum(_value(traced[workload], f"{layer}.self_ms_per_op")
                   for layer in layers)
        return part / total if total else 0.0

    for workload, layers, kind, limit in SEPARATION:
        got = share(workload, layers)
        if (kind == "min" and got < limit) or (kind == "max" and got > limit):
            problems.append(
                f"separation: {'+'.join(layers)} holds {got:.1%} of layer self "
                f"time on {workload}, expected {kind} {limit:.0%}"
            )
    for workload in traced:
        got = share(workload, SOCKET_LAYERS)
        if workload == "realsocket" and got <= 0.0:
            problems.append("separation: socket layers idle on realsocket")
        if workload != "realsocket" and got != 0.0:
            problems.append(f"separation: socket layers ran on {workload}")
    for name in ("server.njs.index_hit_ratio", "client.delta_view_ratio"):
        if _value(traced["monitor"], name) <= 0.0:
            problems.append(f"separation: {name} is zero on monitor")
    with open(os.path.join(out_dir, "trace-bulk.json")) as fh:
        down = json.load(fh)["download_phase_self_s_uncorrected"]
    down.pop("harness", None)
    if max(down, key=down.get) != "net.stream":
        problems.append(
            f"separation: {max(down, key=down.get)}, not net.stream, is the "
            "largest layer of bulk's down phase"
        )
    return problems


def repeat_problems(first: dict[str, dict], second: dict[str, dict]) -> list[str]:
    """Two runs of the same code and seed must agree."""
    problems = []
    print(f"{'workload':<11} {'metric':<22} {'first':>14} {'second':>14} "
          f"{'spread':>8} {'bound':>6}")
    for workload in first:
        realtime = workload == "realsocket"
        for metric in M.END_TO_END:
            a, b = _value(first[workload], metric.name), _value(second[workload], metric.name)
            spread = abs(a - b) / min(abs(a), abs(b)) if a and b else float(a != b)
            note = ""
            if metric.deterministic and not realtime:
                if a != b:
                    note = "  <- must repeat exactly"
            elif spread > metric.bound:
                note = "  <- beyond its bound"
            elif 2 * spread > metric.bound:
                print(f"# note: {metric.name} bound is tighter than twice "
                      f"this spread on {workload}")
            print(f"{workload:<11} {metric.name:<22} {a:>14.6g} {b:>14.6g} "
                  f"{spread:>8.4f} {metric.bound:>6.2f}{note}")
            if note:
                problems.append(f"{workload}.{metric.name}: {a!r} vs {b!r}{note}")
        # `attempted` follows the number of repetitions the budget held.
        if first[workload]["failed"] != second[workload]["failed"]:
            problems.append(f"{workload}.failed differs between the runs")
    return problems


def run_suite(args: argparse.Namespace) -> int:
    names = list(_import_workloads())
    os.makedirs(args.out, exist_ok=True)
    problems: list[str] = []
    untraced = run_suite_once(args, names, trace=0)
    results = {"seed": args.seed, "untraced": untraced}
    if args.repeat_check:
        again = run_suite_once(args, names, trace=0)
        problems += repeat_problems(untraced, again)
    if args.trace:
        traced = run_suite_once(args, names, trace=1)
        results["traced"] = traced
        problems += guard_problems(traced, args.out)
    for name, result in untraced.items():
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']}/{result['attempted']} "
                            "ops failed")
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"{len(names)} workloads, {len(problems)} problems; numbers in "
          f"{os.path.relpath(os.path.join(args.out, 'results.json'))}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.manifest:
        print(json.dumps(M.manifest(_import_workloads().values()), indent=2))
        return 0
    found = selfcheck.problems()
    if found:
        for problem in found:
            print(f"selfcheck: {problem}", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
