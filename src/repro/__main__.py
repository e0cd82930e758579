"""``python -m repro`` — live demonstration and trace inspection.

``repro demo`` (the default) builds the six-site German grid of paper
section 5.7, renders the architecture figures from the live system, runs
a small multi-site job, and prints the JMC view.

``repro trace`` runs one quickstart job end to end and pretty-prints its
span tree — the per-job trace assembled as the AJO flows client →
gateway → NJS → batch → outcome return — optionally exporting the trace
and the metrics snapshot as JSON.

``repro lint`` runs the consign-time static analyzer over serialized
AJO files (the ``encode_ajo`` wire format) and reports the diagnostics,
human-readable or as JSON — the same checks the JPA and NJS apply, made
available for CI pipelines.

``repro snapshot`` runs a quickstart workload on the German grid and
checkpoints the whole deployment to a file; ``repro restore`` thaws such
a file into a fresh grid and reports what came back — the whole-grid
warm-restart path, demonstrable from the shell.

``repro devlint`` points the same static-analysis discipline at the
codebase itself: determinism and state ownership (the RD1xx and RD4xx
rule packs of ``repro.devlint``).  It is the hard lint gate in CI.
"""

import argparse
import json
import sys

from repro.ajo.errors import SerializationError
from repro.ajo.serialize import decode_ajo
from repro.analysis import AnalysisContext, analyze_ajo
from repro.api import GridSession
from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid import (
    build_german_grid, figure1, figure2, job_timeline, render_gantt,
)
from repro.grid.metrics import TierTimes
from repro.observability import telemetry_for
from repro.resources import ResourceRequest


def demo() -> None:
    print("Building the six-site German UNICORE grid (paper section 5.7)...")
    grid = build_german_grid(seed=1999)
    user = grid.add_user(
        "Demo User", organization="FZ Juelich",
        logins={site: "demo" for site in grid.usites},
    )

    print()
    print(figure2(grid))
    print()
    print(figure1(grid.usites["FZJ"]))

    print("\nConnecting (mutual https authentication + applet verification)...")
    session = GridSession(grid, user, "FZJ")

    root = session.new_job("demo", vsite="FZJ-T3E")
    pre = root.script_task(
        "preprocess", script="#!/bin/sh\nprep\n",
        resources=ResourceRequest(cpus=8, time_s=3600),
        simulated_runtime_s=600.0,
    )
    remote = root.sub_job("render@ZIB", vsite="ZIB-SP2", usite="ZIB")
    remote.script_task(
        "render", script="#!/bin/sh\nrender\n",
        resources=ResourceRequest(cpus=8, time_s=3600),
        simulated_runtime_s=300.0,
    )
    root.depends(pre, remote.ajo, files=["field.dat"])

    handle = session.submit(root)
    print(f"consigned {handle}")
    final = session.wait(handle)
    print(f"\nfinal status: {final.status} "
          f"(t = {grid.sim.now:.0f} simulated seconds)\n")
    print(session.render(final))
    print("\nWhere the time went, at both sites (from the job's trace):")
    tracer = telemetry_for(grid.sim).tracer
    print(render_gantt(job_timeline(tracer.trace(handle.trace_id))))
    print("\nRun `pytest benchmarks/ --benchmark-only -s` for the full "
          "experiment suite (see EXPERIMENTS.md).")


def run_traced_job(runtime_s: float = 600.0):
    """Run one single-site quickstart job; returns ``(grid, session, job_id)``.

    The job's trace is afterwards available from
    ``telemetry_for(grid.sim).tracer.trace(job_id)``.
    """
    grid = build_german_grid(seed=1999)
    user = grid.add_user(
        "Trace User", organization="FZ Juelich",
        logins={site: "trace" for site in grid.usites},
    )
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)

    job = jpa.new_job("traced", vsite="FZJ-T3E")
    job.script_task(
        "work", script="#!/bin/sh\nwork\n",
        resources=ResourceRequest(cpus=8, time_s=max(3600.0, 2 * runtime_s)),
        simulated_runtime_s=runtime_s,
    )

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        yield from jmc.wait_for_completion(job_id)
        yield from jmc.outcome(job_id)
        return job_id

    job_id = grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    return grid, session, job_id


def trace_command(args: argparse.Namespace) -> None:
    grid, session, job_id = run_traced_job(runtime_s=args.runtime)
    telemetry = telemetry_for(grid.sim)
    trace = telemetry.tracer.trace(job_id)
    session_trace = (
        telemetry.tracer.trace(session.trace_id) if session.trace_id else None
    )

    print(f"job {job_id} (simulated until t={grid.sim.now:.1f}s)")
    print()
    print(trace.render())
    print()
    print("tier breakdown (TierTimes.from_trace):")
    tiers = TierTimes.from_trace(trace, session_trace=session_trace)
    for label, seconds in tiers.rows():
        print(f"  {label:<32} {seconds:>10.3f}s")
    print(f"  {'middleware total':<32} {tiers.middleware_total():>10.3f}s")

    if args.json:
        export = {
            "job_id": job_id,
            "trace": trace.to_json(),
            "session_trace": session_trace.to_json() if session_trace else None,
            "metrics": telemetry.metrics.snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(export, fh, indent=2)
        print(f"\nwrote JSON export to {args.json}")


def lint_command(args: argparse.Namespace) -> None:
    """Analyze serialized AJO files; exit 1 if any carries errors."""
    context = AnalysisContext()
    reports = []
    for path in args.paths:
        try:
            with open(path, "rb") as fh:
                job = decode_ajo(fh.read())
        except (OSError, SerializationError) as err:
            print(f"{path}: cannot read AJO: {err}", file=sys.stderr)
            sys.exit(2)
        # Off-line lint: the user DN travels with the consignment, not
        # necessarily inside a stored AJO file, so don't require it.
        reports.append((path, analyze_ajo(job, context, require_user=False)))

    if args.json:
        print(json.dumps(
            [dict(report.to_dict(), path=path) for path, report in reports],
            indent=2,
        ))
    else:
        for path, report in reports:
            print(f"{path}:")
            print(report.render())
    if any(not report.ok for _, report in reports):
        sys.exit(1)


def devlint_command(args: argparse.Namespace) -> None:
    """Lint the codebase's own invariants; exit 1 on errors."""
    from repro.devlint import run_devlint

    report = run_devlint()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if not report.ok:
        sys.exit(1)


def snapshot_command(args: argparse.Namespace) -> None:
    """Run a small workload, then checkpoint the whole grid to a file."""
    print(f"Building the German grid (storage={args.storage!r})...")
    grid = build_german_grid(seed=args.seed, storage=args.storage)
    user = grid.add_user(
        "Snapshot User", organization="FZ Juelich",
        logins={site: "snap" for site in grid.usites},
    )
    session = GridSession(grid, user, "FZJ")
    job = session.new_job("checkpointed", vsite="FZJ-T3E")
    job.script_task(
        "work", script="#!/bin/sh\nwork\n",
        resources=ResourceRequest(cpus=8, time_s=max(3600.0, 2 * args.runtime)),
        simulated_runtime_s=args.runtime,
    )
    handle = session.submit(job)
    final = session.wait(handle)
    print(f"job {handle.job_id}: {final.status} at t={grid.sim.now:.1f}s")
    snap = session.snapshot()
    snap.save(args.out)
    print(f"wrote {snap!r} to {args.out}")


def restore_command(args: argparse.Namespace) -> None:
    """Thaw a saved snapshot and report the recovered state."""
    from repro.grid import build_grid

    grid = build_grid(restore_from=args.path, storage=args.storage or None)
    print(
        f"restored grid at t={grid.sim.now:.1f}s: "
        f"{len(grid.usites)} site(s), {len(grid.users)} user(s)"
    )
    for name in sorted(grid.usites):
        njs = grid.usites[name].njs
        print(
            f"  {name}: {len(njs.outcomes)} finished job(s) restored, "
            f"{len(njs.journal)} in flight replayed"
        )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro", description="UNICORE reproduction command line"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo", help="run the six-site grid demonstration")
    trace_parser = sub.add_parser(
        "trace", help="run one job and pretty-print its span tree"
    )
    trace_parser.add_argument(
        "--runtime", type=float, default=600.0,
        help="simulated execution time of the traced job (seconds)",
    )
    trace_parser.add_argument(
        "--json", metavar="PATH", default="",
        help="also write the trace + metrics snapshot as JSON",
    )
    lint_parser = sub.add_parser(
        "lint", help="statically analyze serialized AJO files"
    )
    lint_parser.add_argument(
        "paths", nargs="+", metavar="AJO",
        help="files in the encode_ajo wire format",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics as JSON instead of text",
    )
    devlint_parser = sub.add_parser(
        "devlint",
        help="lint the codebase's own invariants (RD1xx and RD4xx rule packs)",
    )
    devlint_parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    snap_parser = sub.add_parser(
        "snapshot", help="run a workload and checkpoint the grid to a file"
    )
    snap_parser.add_argument(
        "--out", metavar="PATH", default="grid.snapshot",
        help="where to write the snapshot (default: grid.snapshot)",
    )
    snap_parser.add_argument("--seed", type=int, default=1999)
    snap_parser.add_argument(
        "--runtime", type=float, default=600.0,
        help="simulated execution time of the checkpointed job (seconds)",
    )
    snap_parser.add_argument(
        "--storage", default="memory",
        help='durable backend: "memory", "sqlite", or "sqlite:/path/grid.db"',
    )
    restore_parser = sub.add_parser(
        "restore", help="thaw a saved snapshot and report the recovered state"
    )
    restore_parser.add_argument("path", metavar="SNAPSHOT")
    restore_parser.add_argument(
        "--storage", default="",
        help="override the snapshot's storage backend (optional)",
    )
    args = parser.parse_args(argv)
    if args.command == "trace":
        trace_command(args)
    elif args.command == "lint":
        lint_command(args)
    elif args.command == "devlint":
        devlint_command(args)
    elif args.command == "snapshot":
        snapshot_command(args)
    elif args.command == "restore":
        restore_command(args)
    else:
        demo()


if __name__ == "__main__":
    main(sys.argv[1:])
