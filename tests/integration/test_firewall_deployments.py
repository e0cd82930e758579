"""Both section-5.2 deployment options: firewall-split and co-located."""

from repro.client import JobMonitorController, JobPreparationAgent
from repro.grid.build import Grid, _build_applets
from repro.net.sim_transport import Network
from repro.security.ca import CertificateAuthority
from repro.simkernel import Simulator


def build_mixed_grid(seed=19):
    """FZJ co-located (no firewall), ZIB split (behind a firewall)."""
    sim = Simulator()
    network = Network(sim, seed=seed)
    ca = CertificateAuthority(key_bits=384, seed=seed)
    grid = Grid(sim, network, ca)
    grid.applets.update(_build_applets(ca))
    grid.add_usite("FZJ", ["FZJ-T3E"], firewall_split=False)
    grid.add_usite("ZIB", ["ZIB-SP2"], firewall_split=True)
    grid.connect_all()
    return grid


def test_colocated_site_serves_jobs():
    grid = build_mixed_grid()
    fzj = grid.usites["FZJ"]
    assert fzj.njs_host is fzj.gateway_host  # really co-located
    user = grid.add_user("Co Located", logins={"FZJ": "co", "ZIB": "co_b"})
    session = grid.connect_user(user, "FZJ")
    jpa = JobPreparationAgent(session)
    jmc = JobMonitorController(session)
    job = jpa.new_job("on-colo", vsite="FZJ-T3E")
    job.script_task("t", script="#!/bin/sh\nx\n", simulated_runtime_s=20.0)

    def scenario(sim):
        job_id = yield from jpa.submit(job)
        final = yield from jmc.wait_for_completion(job_id)
        return final

    p = grid.sim.process(scenario(grid.sim))
    assert grid.sim.run(until=p).status == "successful"


def test_cross_site_forwarding_between_mixed_deployments():
    """Job groups flow correctly in both directions between a co-located
    site and a firewall-split site."""
    grid = build_mixed_grid()
    user = grid.add_user("Mixed", logins={"FZJ": "mx", "ZIB": "mx_b"})

    for home, remote, remote_vsite, home_vsite in (
        ("FZJ", "ZIB", "ZIB-SP2", "FZJ-T3E"),
        ("ZIB", "FZJ", "FZJ-T3E", "ZIB-SP2"),
    ):
        session = grid.connect_user(user, home)
        jpa = JobPreparationAgent(session)
        jmc = JobMonitorController(session)
        root = jpa.new_job(f"span-from-{home}", vsite=home_vsite)
        work = root.script_task("local", script="#!/bin/sh\nx\n",
                                simulated_runtime_s=30.0)
        sub = root.sub_job("remote", vsite=remote_vsite, usite=remote)
        sub.script_task("far", script="#!/bin/sh\nx\n",
                        simulated_runtime_s=30.0)
        root.depends(work, sub.ajo, files=["data.out"])

        def scenario(sim):
            job_id = yield from jpa.submit(root)
            final = yield from jmc.wait_for_completion(job_id)
            return final

        p = grid.sim.process(scenario(grid.sim))
        final = grid.sim.run(until=p)
        assert final.status == "successful", f"{home} -> {remote}"

    # Both machines really executed work.
    assert grid.usites["FZJ"].vsites["FZJ-T3E"].batch.all_records()
    assert grid.usites["ZIB"].vsites["ZIB-SP2"].batch.all_records()


def test_colocated_route_has_fewer_hops():
    grid = build_mixed_grid()
    fzj_route = grid.usites["FZJ"].njs.peers.routes["ZIB"]
    zib_route = grid.usites["ZIB"].njs.peers.routes["FZJ"]
    # FZJ (co-located) -> ZIB (split): gateway->gateway, gateway->njs.
    assert len(fzj_route) == 2
    # ZIB (split) -> FZJ (co-located): njs->gateway, gateway->gateway.
    assert len(zib_route) == 2
    assert all(a != b for a, b in fzj_route + zib_route)
