"""Render the paper's architecture figures from a *live* grid.

Figures 1 and 2 of the paper are wiring diagrams.  The strongest form of
structural reproduction is to generate those diagrams from the running
system itself: what you see is what is actually instantiated — hosts,
links, tiers, certificates, Vsites — not a drawing that could drift from
the code.
"""

from __future__ import annotations

from repro.server.usite import Usite

__all__ = ["figure1", "figure2"]


def figure1(usite: Usite) -> str:
    """The detailed single-site architecture (paper Figure 1).

    Renders the three tiers of one Usite as currently wired: gateway
    host (with its server certificate), the firewall socket if split,
    the NJS with its Vsites, batch systems, and data spaces.
    """
    lines = []
    lines.append(f"Usite {usite.name}")
    lines.append("=" * (6 + len(usite.name)))
    lines.append("user tier:")
    lines.append("  [Web browser + signed JPA/JMC applets]")
    lines.append("        | https (mutual X.509 authentication)")
    lines.append("        v")
    lines.append("UNICORE server tier:")
    gw = usite.gateway
    lines.append(
        f"  [gateway @ {usite.gateway_host.name}]  cert={usite.server_cert.subject}"
    )
    lines.append(
        f"      applets: {sorted(gw.applets)}  "
        f"resource pages: {sorted(gw.resource_pages())}"
    )
    lines.append(f"      UUDB: {len(usite.uudb)} mapping(s)")
    if usite.firewall_split:
        lines.append("        | firewall socket (site-selectable port)")
        lines.append(f"  [NJS @ {usite.njs_host.name}]")
    else:
        lines.append(f"  [NJS co-located @ {usite.njs_host.name}]")
    lines.append("        | incarnation via translation tables")
    lines.append("        v")
    lines.append("batch subsystem tier:")
    for name, vsite in sorted(usite.vsites.items()):
        m = vsite.machine
        lines.append(
            f"  [Vsite {name}: {m.architecture}, {m.cpus} cpus, "
            f"{vsite.batch.dialect.display_name}; queues "
            f"{sorted(vsite.batch.queues)}]"
        )
        lines.append(
            f"      Uspace spool: {len(vsite.uspaces.active_jobs)} active "
            f"job dir(s)"
        )
    lines.append(f"  [Xspace {usite.xspace.fs.name}: "
                 f"{usite.xspace.fs.file_count()} file(s)]")
    return "\n".join(lines)


def figure2(grid) -> str:
    """The multi-site overview (paper Figure 2), from live peer routes."""
    lines = ["UNICORE grid", "============"]
    for name in sorted(grid.usites):
        usite = grid.usites[name]
        machines = ", ".join(
            v.machine.architecture for v in usite.vsites.values()
        )
        lines.append(f"  Usite {name}: {machines}")
    lines.append("")
    lines.append("server-to-server connections (job groups / data / control):")
    seen = set()
    for name in sorted(grid.usites):
        njs = grid.usites[name].njs
        for peer, route in sorted(njs.peers.routes.items()):
            key = frozenset((name, peer))
            if key in seen:
                continue
            seen.add(key)
            hops = " -> ".join([route[0][0]] + [dst for _, dst in route])
            lines.append(f"  {name} <-> {peer}: {hops}")
    lines.append("")
    lines.append(
        f"users: {sorted(grid.users)} (one X.509 certificate each, "
        f"CA: {grid.ca.dn})"
    )
    return "\n".join(lines)
