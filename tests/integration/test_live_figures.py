"""The architecture figures rendered from live systems match the paper."""

from repro.grid import build_german_grid, build_grid
from repro.grid.figures import figure1, figure2


def test_figure1_shows_all_three_tiers():
    grid = build_grid({"FZJ": ["FZJ-T3E"]}, seed=47)
    grid.add_user("Fig User", logins={"FZJ": "fig"})
    text = figure1(grid.usites["FZJ"])
    # The tiers, top to bottom.
    assert text.index("user tier") < text.index("UNICORE server tier")
    assert text.index("UNICORE server tier") < text.index("batch subsystem tier")
    # The components of section 4.2.
    assert "gateway @ FZJ.gateway" in text
    assert "firewall socket" in text
    assert "NJS @ FZJ.njs" in text
    assert "UUDB: 1 mapping(s)" in text
    assert "JPA" in text and "JMC" in text
    assert "Cray T3E-900" in text
    assert "Xspace" in text
    assert "translation tables" in text


def test_figure1_colocated_variant():
    from repro.grid.build import Grid, _build_applets
    from repro.net.sim_transport import Network
    from repro.security.ca import CertificateAuthority
    from repro.simkernel import Simulator

    sim = Simulator()
    grid = Grid(sim, Network(sim, seed=1), CertificateAuthority(key_bits=384, seed=1))
    grid.applets.update(_build_applets(grid.ca))
    usite = grid.add_usite("FZJ", ["FZJ-T3E"], firewall_split=False)
    text = figure1(usite)
    assert "co-located" in text
    assert "firewall socket" not in text


def test_figure2_shows_full_mesh_and_machines():
    grid = build_german_grid(seed=47)
    grid.add_user("Grid User", logins={s: "gu" for s in grid.usites})
    text = figure2(grid)
    for site in ("FZJ", "RUS", "RUKA", "LRZ", "ZIB", "DWD"):
        assert f"Usite {site}" in text
    for arch in ("Cray T3E", "Fujitsu VPP/700", "IBM SP-2", "NEC SX-4"):
        assert arch in text
    # Full mesh: 6 choose 2 = 15 connections, each listed once.
    assert text.count("<->") == 15
    # Routes go via the gateways (section 5.6).
    assert "FZJ.njs -> FZJ.gateway" in text
    assert "Grid User" in text and "DFN-PCA" in text
