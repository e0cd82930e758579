"""A Usite: one UNICORE site assembled end to end.

Paper section 4: "a UNICORE site (Usite) is defined as a computer center
offering a UNICORE server and execution hosts grouped in so called
Vsites."  A :class:`Usite` builds the whole Figure 1 stack for one
center: gateway host (on the firewall), NJS host (inside), the firewall
socket between them, the Vsites with their batch systems, the Xspace,
the UUDB, and the site's server certificate.
"""

from __future__ import annotations

from repro.batch.machines import MachineConfig
from repro.net.errors import HostUnreachable
from repro.net.sim_transport import Network
from repro.resources.page import ResourcePage
from repro.security.applet import SignedApplet
from repro.security.ca import CertificateAuthority, CertificateStore
from repro.security.uudb import UUDB, UserMapping
from repro.security.x509 import CertificateRole, DistinguishedName
from repro.server.gateway import Gateway
from repro.server.njs.supervisor import NetworkJobSupervisor
from repro.server.vsite import Vsite
from repro.simkernel import Simulator
from repro.storage.backend import StorageBackend, resolve_storage
from repro.vfs.spaces import Xspace

__all__ = ["Usite"]

#: Firewall-socket link between web server and NJS (section 5.2).
INTERNAL_LATENCY_S = 0.0005
INTERNAL_BANDWIDTH_BPS = 12_500_000.0  # 100 Mbit/s site LAN


class Usite:
    """One computer center running UNICORE."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        ca: CertificateAuthority,
        machines: list[MachineConfig],
        applets: dict[str, SignedApplet] | None = None,
        schedulers: dict[str, object] | None = None,
        firewall_split: bool = True,
        gateway_count: int = 1,
        max_active_per_user: int | None = None,
        storage: StorageBackend | None = None,
    ) -> None:
        """``firewall_split`` separates the web server (on the firewall
        host) from the NJS (inside), joined by the section 5.2 IP socket;
        with ``False`` both run on one host (the no-firewall deployment).

        ``gateway_count`` > 1 deploys additional gateways on their own
        hosts, all fronting the same NJS — the production pattern of
        load-balancing one Usite behind several web servers.  Peer and
        WAN wiring stays on the primary (``self.gateway``).
        ``max_active_per_user`` is the site-local fair-use concurrency
        cap enforced at consign time.  ``storage`` is the site's durable
        backend (UUDB mappings, resource pages, the NJS journal and
        outcome store); the default resolves ``REPRO_STORAGE``.
        """
        self.sim = sim
        self.network = network
        self.name = name
        self.firewall_split = firewall_split
        self.gateway_host = network.add_host(f"{name}.gateway")
        if firewall_split:
            self.njs_host = network.add_host(f"{name}.njs")
            network.link(
                self.gateway_host.name,
                self.njs_host.name,
                latency_s=INTERNAL_LATENCY_S,
                bandwidth_Bps=INTERNAL_BANDWIDTH_BPS,
            )
        else:
            self.njs_host = self.gateway_host
        #: All gateway hosts, primary first.
        self.gateway_hosts = [self.gateway_host]
        for i in range(1, gateway_count):
            extra = network.add_host(f"{name}.gw{i}")
            network.link(
                extra.name,
                self.njs_host.name,
                latency_s=INTERNAL_LATENCY_S,
                bandwidth_Bps=INTERNAL_BANDWIDTH_BPS,
            )
            self.gateway_hosts.append(extra)

        self.storage = storage if storage is not None else resolve_storage(None)
        self.xspace = Xspace(name)
        self.uudb = UUDB(name, storage=self.storage)
        self.cert_store = CertificateStore(trusted=[ca])
        self.server_cert, self.server_key = ca.issue(
            DistinguishedName(cn=f"gateway.{name.lower()}.de", o=name, c="DE"),
            role=CertificateRole.SERVER,
        )

        schedulers = schedulers or {}
        self.vsites: dict[str, Vsite] = {
            m.name: Vsite(sim, m, scheduler=schedulers.get(m.name))
            for m in machines
        }
        #: Durable copy of each Vsite's published resource page — a site
        #: cold start serves the pages the administrator last published,
        #: not freshly regenerated defaults.
        self._resource_table = self.storage.table(f"{name}.resources")
        self._sync_resource_pages()

        from repro.ext.accounting import AccountingLog

        #: Section 6 "accounting functions": every UNICORE batch record
        #: at this site is charged here.
        self.accounting = AccountingLog()

        self.njs = NetworkJobSupervisor(
            sim=sim,
            usite_name=name,
            host=self.njs_host,
            network=network,
            uudb=self.uudb,
            xspace=self.xspace,
            vsites=self.vsites,
            accounting=self.accounting,
            storage=self.storage,
            own_inbox=firewall_split,
            max_active_per_user=max_active_per_user,
        )
        #: All gateways (one per gateway host), sharing the NJS, UUDB,
        #: and certificate store; ``self.gateway`` is the primary.
        self.gateways = [
            Gateway(
                sim=sim,
                usite_name=name,
                host=host,
                network=network,
                cert_store=self.cert_store,
                uudb=self.uudb,
                njs=self.njs,
                applets=applets,
            )
            for host in self.gateway_hosts
        ]
        self.gateway = self.gateways[0]

    # -- resource page persistence ------------------------------------------
    def _sync_resource_pages(self) -> None:
        """Restore stored pages, or persist the freshly generated ones."""
        for vsite_name, vsite in self.vsites.items():
            stored = self._resource_table.get(vsite_name)
            if stored is not None:
                vsite.resource_page = ResourcePage.from_asn1(bytes(stored))
            else:
                self._resource_table.put(
                    vsite_name, vsite.resource_page.to_asn1()
                )

    def publish_resource_page(self, vsite_name: str, page: ResourcePage) -> None:
        """Publish an updated page (section 5.4) and persist it durably."""
        self.vsites[vsite_name].resource_page = page
        self._resource_table.put(vsite_name, page.to_asn1())

    # -- full-site failure (driven by repro.faults) -------------------------
    def crash_site(self) -> None:
        """Power-fail the whole site: every gateway plus the NJS.

        The NJS loses its heap exactly as in a bare ``njs.crash()``; the
        site failure adds the gateways (and, at :meth:`restart_site`,
        the UUDB and resource pages re-read from storage).  What
        survives is the storage backend, the Vsites' disks and their
        batch systems.
        """
        for gateway in self.gateways:
            gateway.crash()
        self.njs.crash()

    def restart_site(self) -> None:
        """Cold-start the site from durable storage.

        The UUDB re-reads its mapping table, resource pages come back
        from the administrator's last publish, the gateways resume
        serving, and the NJS reloads its journal — finished jobs
        reappear as restored listings, incomplete ones are replayed.
        """
        self.uudb.reload()
        self._sync_resource_pages()
        for gateway in self.gateways:
            gateway.restart()
        self.njs.restart()

    # -- administration -----------------------------------------------------
    def add_user(
        self, dn: DistinguishedName | str, login: str, gid: str = "users",
        vsite: str = "",
    ) -> UserMapping:
        """Register a local account mapping (the site administration's job)."""
        return self.uudb.add_user(dn, login, gid=gid, vsite=vsite)

    def connect_to(self, other: "Usite", latency_s: float = 0.015,
                   bandwidth_Bps: float = 1_250_000.0,
                   loss_probability: float = 0.0) -> None:
        """Join two Usites: WAN link between gateways plus NJS peer routes.

        NJS-to-NJS traffic travels "via the gateway" (section 5.6):
        NJS → own gateway → peer gateway → peer NJS.
        """
        try:
            self.network.get_link(self.gateway_host.name, other.gateway_host.name)
        except HostUnreachable:
            self.network.link(
                self.gateway_host.name,
                other.gateway_host.name,
                latency_s=latency_s,
                bandwidth_Bps=bandwidth_Bps,
                loss_probability=loss_probability,
            )
        def _route(hops: list[tuple[str, str]]) -> list[tuple[str, str]]:
            # Co-located gateway/NJS collapses that hop.
            return [(a, b) for a, b in hops if a != b]

        self.njs.peers.register(
            other.name,
            route=_route([
                (self.njs_host.name, self.gateway_host.name),
                (self.gateway_host.name, other.gateway_host.name),
                (other.gateway_host.name, other.njs_host.name),
            ]),
        )
        other.njs.peers.register(
            self.name,
            route=_route([
                (other.njs_host.name, other.gateway_host.name),
                (other.gateway_host.name, self.gateway_host.name),
                (self.gateway_host.name, self.njs_host.name),
            ]),
        )

    def __repr__(self) -> str:
        return f"<Usite {self.name} vsites={sorted(self.vsites)}>"
