"""Grid construction: sites, PKI, applets, users, and the WAN.

:func:`build_german_grid` reproduces the production deployment of paper
section 5.7: FZ Jülich, RUS Stuttgart, RUKA Karlsruhe, LRZ Munich, ZIB
Berlin, and DWD Offenbach, running Cray T3E, Fujitsu VPP/700, IBM SP-2,
and NEC SX-4 systems, all trusting one CA (the DFN-PCA role).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.batch.machines import machine
from repro.client.browser import Browser, UnicoreSession
from repro.grid.snapshot import GridSnapshot
from repro.net.sim_transport import Network
from repro.net.transport import TransportSpec, resolve_transport
from repro.security.applet import AppletBundle, SignedApplet, sign_applet
from repro.security.ca import CertificateAuthority, CertificateStore
from repro.security.x509 import CertificateRole, DistinguishedName
from repro.server.usite import Usite
from repro.simkernel import Simulator
from repro.storage.backend import StorageBackend, StorageSpec, resolve_storage
from repro.storage.errors import SnapshotError
from repro.vfs.spaces import Workstation

__all__ = ["Grid", "GridUser", "build_grid", "build_german_grid"]

#: The six production sites of section 5.7 and their machines.
GERMAN_SITES: dict[str, list[str]] = {
    "FZJ": ["FZJ-T3E"],
    "RUS": ["RUS-T3E"],
    "RUKA": ["RUKA-SP2"],
    "LRZ": ["LRZ-VPP"],
    "ZIB": ["ZIB-SP2"],
    "DWD": ["DWD-SX4"],
}

#: 1999-era WAN between German research centers (B-WiN): 2 Mbit/s slices,
#: ~15 ms one-way latency.
WAN_LATENCY_S = 0.015
WAN_BANDWIDTH_BPS = 250_000.0
#: User access lines were slower still (ISDN/early DSL uplinks aside,
#: university LANs reached the WAN at similar rates).
ACCESS_LATENCY_S = 0.010
ACCESS_BANDWIDTH_BPS = 250_000.0


@dataclass(slots=True)
class GridUser:
    """A user: certificate, workstation, and a browser on a named host."""

    name: str
    browser: Browser
    workstation: Workstation


class Grid:
    """A running multi-site UNICORE deployment."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        ca: CertificateAuthority,
        storage: StorageBackend | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.ca = ca
        #: One durable backend shared by every Usite (tables are
        #: prefixed per site), so one dump captures the whole grid.
        self.storage = storage if storage is not None else resolve_storage(None)
        self.usites: dict[str, Usite] = {}
        self.users: dict[str, GridUser] = {}
        self.applets: dict[str, SignedApplet] = {}
        self._user_seq = 0
        #: Round-robin position per Usite for gateway load balancing.
        self._gateway_rr: dict[str, int] = {}
        #: Set by :func:`repro.broker.service.attach_broker`.
        self.broker = None
        #: Deterministic rebuild recipes, recorded by :func:`build_grid`
        #: and :meth:`add_user` — what :meth:`snapshot` serializes in
        #: place of unpicklable live objects.
        self._build_recipe: dict | None = None
        self._user_recipes: list[dict] = []

    # -- construction --------------------------------------------------------
    def add_usite(self, name: str, machine_names: list[str], **usite_kw) -> Usite:
        usite = Usite(
            self.sim,
            self.network,
            name,
            self.ca,
            machines=[machine(m) for m in machine_names],
            applets=self.applets,
            storage=self.storage,
            **usite_kw,
        )
        self.usites[name] = usite
        return usite

    def connect_all(
        self,
        latency_s: float = WAN_LATENCY_S,
        bandwidth_Bps: float = WAN_BANDWIDTH_BPS,
        loss_probability: float = 0.0,
    ) -> None:
        """Full WAN mesh between all Usites (Figure 2)."""
        names = sorted(self.usites)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.usites[a].connect_to(
                    self.usites[b],
                    latency_s=latency_s,
                    bandwidth_Bps=bandwidth_Bps,
                    loss_probability=loss_probability,
                )

    def add_user(
        self,
        cn: str,
        organization: str = "",
        logins: dict[str, str] | None = None,
        home_sites: typing.Iterable[str] | None = None,
        register: bool = True,
    ) -> GridUser:
        """Create a user: certificate, UUDB entries, workstation, browser.

        ``logins`` maps Usite name → local login; sites not listed get no
        mapping (access there will be refused — the paper's model).
        ``register=False`` skips the UUDB writes — the snapshot-restore
        path, where the mappings already came back from durable storage
        and re-adding them would be a duplicate.
        """
        home_sites = None if home_sites is None else list(home_sites)
        self._user_recipes.append({
            "cn": cn,
            "organization": organization,
            "logins": dict(logins or {}),
            "home_sites": home_sites,
        })
        dn = DistinguishedName(cn=cn, o=organization, c="DE")
        cert, key = self.ca.issue(dn, role=CertificateRole.USER)
        if register:
            for usite_name, login in (logins or {}).items():
                self.usites[usite_name].add_user(dn, login)

        self._user_seq += 1
        host_name = f"ws{self._user_seq}.{cn.split()[0].lower()}"
        self.network.add_host(host_name)
        # Workstations sit on the user's side of the WAN boundary: a
        # realtime transport carries their gateway traffic over sockets.
        self.network.mark_wan(host_name)
        for usite_name in home_sites or self.usites:
            # One access line per gateway host, so a load-balanced Usite
            # is reachable through any of its gateways.
            for gw_host in self.usites[usite_name].gateway_hosts:
                self.network.link(
                    host_name,
                    gw_host.name,
                    latency_s=ACCESS_LATENCY_S,
                    bandwidth_Bps=ACCESS_BANDWIDTH_BPS,
                )
        workstation = Workstation(str(dn))
        browser = Browser(
            self.sim,
            self.network,
            host_name,
            user_cert=cert,
            user_key=key,
            trust_store=CertificateStore(trusted=[self.ca]),
            workstation=workstation,
        )
        user = GridUser(name=cn, browser=browser, workstation=workstation)
        self.users[cn] = user
        return user

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> GridSnapshot:
        """Capture the whole deployment for a later restart.

        Serializes the build recipe, every durable table and log, the
        users (with their workstation files), and the simkernel cursors
        (clock, message ids, link loss-RNG states).  Live sessions and
        in-flight events are not captured: jobs caught mid-run come back
        through journal replay on restore.  Only grids built by
        :func:`build_grid` can snapshot — hand-assembled ones have no
        recorded recipe.
        """
        if self._build_recipe is None:
            raise SnapshotError(
                "snapshot() requires a build_grid()-built grid "
                "(no build recipe recorded)"
            )
        return GridSnapshot(
            clock=self.sim.now,
            build=dict(self._build_recipe),
            users=[dict(recipe) for recipe in self._user_recipes],
            workstation_files={
                name: {
                    path: user.workstation.fs.read(path)
                    for path in user.workstation.fs.walk_files("/")
                }
                for name, user in self.users.items()
            },
            storage=self.storage.dump(),
            network=self.network.state_cursors(),
            gateway_rr=dict(self._gateway_rr),
        )

    # -- convenience -------------------------------------------------------------
    def connect_plan(
        self, user: GridUser, usite_name: str, gateway: int | None = None
    ) -> typing.Generator:
        """The §4.1 connect sequence as a plan generator (backend-neutral).

        On a multi-gateway Usite, sessions are spread round-robin over
        the gateways unless ``gateway`` pins a specific index.  Both
        session facades drive this same generator — the blocking one via
        :meth:`connect_user`, the async one through the transport pump.
        """
        usite = self.usites[usite_name]
        if gateway is None:
            gateway = self._gateway_rr.get(usite_name, 0)
            self._gateway_rr[usite_name] = (gateway + 1) % len(usite.gateways)
        session = yield from user.browser.connect(
            usite, gateway=usite.gateways[gateway]
        )
        return session

    def connect_user(
        self, user: GridUser, usite_name: str, gateway: int | None = None
    ) -> UnicoreSession:
        """Run the browser-connect plan to completion (blocking helper)."""
        proc = self.sim.process(
            self.connect_plan(user, usite_name, gateway),
            name=f"connect:{user.name}@{usite_name}",
        )
        return typing.cast(UnicoreSession, self.sim.run(until=proc))


def _build_applets(ca: CertificateAuthority) -> dict[str, SignedApplet]:
    """The signed JPA and JMC applets every gateway serves (section 4.1)."""
    dev_cert, dev_key = ca.issue(
        DistinguishedName(cn="UNICORE Software", o="UNICORE Consortium", c="DE"),
        role=CertificateRole.SOFTWARE,
    )
    applets = {}
    for name, classes in (
        ("JPA", ["JobTree", "TaskEditor", "ResourcePanel", "SubmitDialog"]),
        ("JMC", ["StatusTree", "OutputViewer", "ControlPanel"]),
    ):
        bundle = AppletBundle(name=name, version="3.0")
        for cls in classes:
            # Synthetic class files: content derives from the name so two
            # builds are identical (and tampering is detectable).
            bundle.add_file(
                f"{name.lower()}/{cls}.class",
                b"\xca\xfe\xba\xbe" + cls.encode() * 400,
            )
        applets[name] = sign_applet(bundle, dev_cert, dev_key)
    return applets


def build_grid(
    sites: dict[str, list[str]] | None = None,
    seed: int = 0,
    wan_latency_s: float = WAN_LATENCY_S,
    wan_bandwidth_Bps: float = WAN_BANDWIDTH_BPS,
    key_bits: int = 384,
    gateways: int | dict[str, int] = 1,
    max_active_per_user: int | None = None,
    transport: "TransportSpec | str | None" = None,
    storage: "StorageSpec | str | None" = None,
    restore_from: "GridSnapshot | str | None" = None,
) -> Grid:
    """Build a grid with the given ``{usite: [machine names]}`` layout.

    ``gateways`` deploys that many load-balanced gateways per Usite
    (or per-site counts as a ``{usite: n}`` mapping).
    ``max_active_per_user`` sets every site's fair-use concurrency cap.
    ``transport`` picks the message fabric: ``None``/``"sim"`` for the
    deterministic simkernel backend, ``"aio"`` (or a
    :class:`~repro.net.transport.TransportSpec` with options) for real
    asyncio TCP sockets on the WAN edges.
    ``storage`` picks the durable backend for every site's state
    (``None`` resolves ``REPRO_STORAGE``, default ``"memory"``;
    ``"sqlite"`` or ``"sqlite:/path/grid.db"`` for SQLite).
    ``restore_from`` rebuilds a grid from a :class:`GridSnapshot` (or a
    saved snapshot path) instead of starting fresh: same topology and
    certificates, virtual clock resumed, finished jobs restored from
    storage, incomplete ones replayed.  All other arguments then come
    from the snapshot's build recipe, except ``storage``, which may be
    overridden (e.g. to thaw a file-backed snapshot into memory).
    """
    snap: GridSnapshot | None = None
    if restore_from is not None:
        snap = (
            restore_from
            if isinstance(restore_from, GridSnapshot)
            else GridSnapshot.load(restore_from)
        )
        recipe = snap.build
        sites = {
            name: list(machines)
            for name, machines in typing.cast(dict, recipe["sites"]).items()
        }
        seed = int(typing.cast(int, recipe["seed"]))
        wan_latency_s = float(typing.cast(float, recipe["wan_latency_s"]))
        wan_bandwidth_Bps = float(typing.cast(float, recipe["wan_bandwidth_Bps"]))
        key_bits = int(typing.cast(int, recipe["key_bits"]))
        raw_gateways = recipe["gateways"]
        gateways = (
            {k: int(v) for k, v in raw_gateways.items()}
            if isinstance(raw_gateways, dict)
            else int(typing.cast(int, raw_gateways))
        )
        max_active_per_user = typing.cast("int | None", recipe["max_active_per_user"])
        tr = typing.cast(dict, recipe["transport"])
        transport = TransportSpec(
            kind=str(tr["kind"]), options=dict(tr["options"])
        )
        if storage is None:
            st = typing.cast(dict, recipe["storage"])
            storage = StorageSpec(kind=str(st["kind"]), options=dict(st["options"]))
    if sites is None:
        raise TypeError("build_grid() needs sites= unless restore_from= is given")

    transport_spec = TransportSpec.parse(transport)
    storage_spec = StorageSpec.parse(storage)
    sim = Simulator(start=snap.clock if snap is not None else 0.0)
    network = resolve_transport(transport_spec, sim, seed=seed)
    backend = resolve_storage(storage_spec)
    if snap is not None:
        backend.load(snap.storage)
    ca = CertificateAuthority(key_bits=key_bits, seed=seed)
    grid = Grid(sim, network, ca, storage=backend)
    grid._build_recipe = {
        "sites": {name: list(machines) for name, machines in sites.items()},
        "seed": seed,
        "wan_latency_s": wan_latency_s,
        "wan_bandwidth_Bps": wan_bandwidth_Bps,
        "key_bits": key_bits,
        "gateways": dict(gateways) if isinstance(gateways, dict) else gateways,
        "max_active_per_user": max_active_per_user,
        "transport": {
            "kind": transport_spec.kind,
            "options": dict(transport_spec.options),
        },
        "storage": {
            "kind": storage_spec.kind,
            "options": dict(storage_spec.options),
        },
    }
    grid.applets.update(_build_applets(ca))
    for name, machines in sites.items():
        count = gateways.get(name, 1) if isinstance(gateways, dict) else gateways
        grid.add_usite(
            name, machines, gateway_count=count,
            max_active_per_user=max_active_per_user,
        )
    grid.connect_all(latency_s=wan_latency_s, bandwidth_Bps=wan_bandwidth_Bps)
    if snap is not None:
        for recipe_user in snap.users:
            rec = typing.cast(dict, recipe_user)
            user = grid.add_user(
                str(rec["cn"]),
                str(rec["organization"]),
                logins=typing.cast(dict, rec["logins"]),
                home_sites=typing.cast("list | None", rec["home_sites"]),
                register=False,
            )
            files = typing.cast(dict, snap.workstation_files.get(rec["cn"], {}))
            for path, content in files.items():
                user.workstation.fs.write(path, content)
        network.restore_cursors(snap.network)
        grid._gateway_rr.update(snap.gateway_rr)
        # Sites cold-start from the loaded dump: finished jobs reappear
        # as restored listings, incomplete ones are replayed.
        for usite in grid.usites.values():
            usite.njs.recover()
    return grid


def build_german_grid(seed: int = 0, **kw) -> Grid:
    """The six-site production deployment of paper section 5.7."""
    return build_grid(GERMAN_SITES, seed=seed, **kw)
