#!/usr/bin/env python
"""Quickstart: one compile-link-execute F90 job at FZ Jülich.

This walks the paper's primary scenario end to end, through the public
:class:`repro.api.GridSession` facade:

1. build a one-site grid (FZ Jülich's Cray T3E);
2. a user with a certificate and a UUDB mapping opens a session: mutual
   https authentication, signed JPA/JMC applets verified, resource page
   loaded — all inside the ``GridSession`` constructor;
3. the builder assembles a compile-link-execute job (the prototype's F90
   path) with an import from the workstation and an export of the result;
4. ``submit`` consigns it; the NJS incarnates each task into NQS
   scripts, sequences them, and collects output;
5. ``wait`` polls asynchronously until completion; ``outcome`` fetches
   the result tree.

Run:  python examples/quickstart.py
"""

from repro import GridSession
from repro.grid import build_grid, job_timeline, render_gantt
from repro.observability import telemetry_for
from repro.resources import ResourceRequest


def main() -> None:
    # 1. One Usite with the Cray T3E behind it.
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=42)

    # 2. Alice: certificate from the CA, local login in the FZJ UUDB.
    alice = grid.add_user(
        "Alice Adams", organization="FZ Juelich", logins={"FZJ": "alice01"}
    )
    alice.workstation.fs.write(
        "/home/alice/solver.f90", b"program solver\n  print *, 'hi'\nend\n"
    )
    session = GridSession(grid, alice, "FZJ")
    print(f"connected to {session.session.usite} as {session.session.user_dn}")
    print(f"applets verified: {sorted(session.session.applets)}")
    page = session.session.resource_pages["FZJ-T3E"]
    print(f"destination: {page.architecture} / {page.operating_system}, "
          f"cpus {page.ranges['cpus'].minimum:.0f}..{page.ranges['cpus'].maximum:.0f}")

    # 3. Build the job.
    job = session.new_job("quickstart", vsite="FZJ-T3E", account_group="zam")
    src = job.import_from_workstation("/home/alice/solver.f90", "solver.f90")
    compile_t, link_t, run_t = job.compile_link_execute(
        "solver",
        sources=["solver.f90"],
        executable="solver.exe",
        run_resources=ResourceRequest(cpus=32, time_s=7200, memory_mb=2048),
        simulated_runtime_s=1500.0,
    )
    job.depends(src, compile_t, files=["solver.f90"])
    exp = job.export_to_xspace("result.dat", "/archive/quickstart/result.dat")
    job.depends(run_t, exp, files=["result.dat"])

    # 4+5. Consign, poll, harvest — each verb drives the simulation.
    handle = session.submit(job)
    print(f"consigned: {handle}")
    final = session.wait(handle)
    outcome = session.outcome(handle)

    print(f"\nfinal status: {final.status}  (t={grid.sim.now:.1f}s simulated)")
    print("\nJMC job tree:")
    print(session.render(final))

    print("\njob timeline (where the time went), read from the job's trace:")
    tracer = telemetry_for(grid.sim).tracer
    print(render_gantt(job_timeline(tracer.trace(handle.trace_id))))
    print("\nrun task stdout:", outcome.child(run_t.id).stdout.strip())
    xfs = grid.usites["FZJ"].xspace.fs
    print(f"exported result: {xfs.size('/archive/quickstart/result.dat')} bytes "
          "on the FZJ Xspace")


if __name__ == "__main__":
    main()
