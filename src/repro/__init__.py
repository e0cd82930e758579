"""unicore-repro: the UNICORE architecture (Romberg, HPDC 1999), rebuilt.

A from-scratch, fully simulated reproduction of UNICORE's three-tier
grid middleware: the abstract job object and its protocol, the
X.509/https security architecture, gateway, network job supervisor,
Uspace/Xspace data model, and the vendor batch systems of the six German
production sites.

Typical entry points:

>>> from repro.grid import build_german_grid
>>> from repro import GridSession          # the public facade
>>> grid = build_german_grid()
>>> session = GridSession(grid, grid.add_user("A", logins={"FZJ": "a"}), "FZJ")

Subpackages (bottom-up):

- :mod:`repro.simkernel` — discrete-event engine;
- :mod:`repro.net` — simulated WAN and https channels;
- :mod:`repro.security` — PKI, SSL handshake, signed applets, UUDB;
- :mod:`repro.ajo` — the abstract job object (paper Figure 3);
- :mod:`repro.resources` — the resource model and ASN.1 resource pages;
- :mod:`repro.vfs` — Workstation / Xspace / Uspace;
- :mod:`repro.batch` — vendor batch systems (NQS, LoadLeveler, VPP, Codine);
- :mod:`repro.protocol` — the asynchronous consign-and-poll protocol;
- :mod:`repro.server` — gateway, Vsites, translation tables, the NJS;
- :mod:`repro.client` — browser, JPA, JMC;
- :mod:`repro.grid` — multi-site assembly and workloads;
- :mod:`repro.faults` — deterministic fault injection and resilience;
- :mod:`repro.broker` — the federated resource broker (late binding);
- :mod:`repro.ext` — the rest of the section-6 outlook: accounting and
  co-allocation;
- :mod:`repro.api` — the :class:`~repro.api.GridSession` facade over
  the whole user tier (submit / status / outcome / cancel).
"""

__version__ = "0.1.0"

__all__ = [
    "GridSession",
    "JobHandle",
    "ajo",
    "batch",
    "client",
    "ext",
    "grid",
    "net",
    "protocol",
    "resources",
    "security",
    "server",
    "simkernel",
    "vfs",
]


def __getattr__(name: str):
    # The facade is exported lazily: repro.api imports half the stack,
    # which ``import repro`` alone should not pay for.
    if name in ("GridSession", "JobHandle"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
