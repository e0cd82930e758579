"""A13 (ablation) — section 5.2: the firewall split's cost.

Paper: "For sites using firewalls the UNICORE server can be separated
into the Web server and the NJS part with the firewall in between ...
The communication between the two components is done via IP socket
connection to a site selectable port."

The split is a deployment *option*; this ablation measures what it
costs: every client request crosses the internal socket twice (request
in, reply out), and NJS-NJS traffic gains an extra store-and-forward hop
per direction.

Expected shape: per-request overhead on the order of the internal link's
round trip (~1 ms) — negligible against WAN latencies, i.e. the security
option is effectively free, which is why the paper offers it without
caveats.
"""

import pytest

from benchmarks._util import print_table
from repro.client import JobMonitorController
from repro.grid import build_grid


def _request_latency(firewall_split: bool, n_requests: int = 30) -> float:
    """Mean JMC list_jobs round trip against an idle site."""
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=13)
    # Rebuild the second site variant by flag: build_grid always splits,
    # so construct the non-split Usite directly when asked.
    if not firewall_split:
        import repro.grid.build as gb

        sim = __import__("repro.simkernel", fromlist=["Simulator"]).Simulator()
        from repro.net.sim_transport import Network
        from repro.security.ca import CertificateAuthority

        network = Network(sim, seed=13)
        ca = CertificateAuthority(key_bits=384, seed=13)
        grid = gb.Grid(sim, network, ca)
        grid.applets.update(gb._build_applets(ca))
        grid.add_usite("FZJ", ["FZJ-T3E"], firewall_split=False)
        grid.connect_all()

    user = grid.add_user("FW User", logins={"FZJ": "fw"})
    session = grid.connect_user(user, "FZJ")
    jmc = JobMonitorController(session)

    samples = []

    def scenario(sim):
        for _ in range(n_requests):
            t0 = sim.now
            yield from jmc.list_jobs()
            samples.append(sim.now - t0)

    grid.sim.run(until=grid.sim.process(scenario(grid.sim)))
    return sum(samples) / len(samples)


@pytest.mark.benchmark(group="A13-firewall-split")
def test_a13_firewall_split_cost(benchmark):
    results = {}

    def run():
        results["split"] = _request_latency(True)
        results["colocated"] = _request_latency(False)

    benchmark.pedantic(run, rounds=1, iterations=1)

    overhead = results["split"] - results["colocated"]
    print_table(
        "A13: request latency, firewall-split vs co-located server",
        ["deployment", "mean request latency (s)"],
        [
            ("co-located", f"{results['colocated']:.6f}"),
            ("firewall split", f"{results['split']:.6f}"),
            ("overhead", f"{overhead:.6f}"),
        ],
    )

    # The split costs something (the socket is real)...
    assert overhead > 0
    # ...but it is negligible against the client's WAN access latency.
    assert overhead < 0.1 * results["colocated"]
