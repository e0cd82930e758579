"""A Vsite: one virtual site of a Usite.

Paper section 4: "A Vsite (virtual site) consists of systems at one Usite
sharing the same data space."  Operationally a Vsite bundles the batch
system of its execution host, the Uspace manager on its spool filesystem,
the resource page its administrator publishes, and the translation table
the NJS incarnates against.
"""

from __future__ import annotations

from repro.batch.base import BatchState, BatchSystem, QueueConfig
from repro.batch.errors import BatchError
from repro.batch.machines import MachineConfig
from repro.protocol.views import VsiteCapacity
from repro.resources.editor import ResourcePageEditor
from repro.resources.page import ResourcePage
from repro.server.translation import TranslationTable
from repro.simkernel import Simulator
from repro.vfs.spaces import UspaceManager

__all__ = ["Vsite", "default_translation_for", "default_queues_for"]


def default_queues_for(machine: MachineConfig) -> list[QueueConfig]:
    """A realistic size-classed queue layout for one machine.

    ``small`` and ``medium`` cap cpus and time; ``batch`` is the
    catch-all (full machine, 24 h) so every page-admissible request has
    a queue.  The NJS routes each incarnated job to the tightest
    admitting queue.
    """
    return [
        QueueConfig(
            name="small", max_cpus=max(1, machine.cpus // 4),
            max_time_s=3600.0,
        ),
        QueueConfig(
            name="medium", max_cpus=max(1, machine.cpus // 2),
            max_time_s=12 * 3600.0,
        ),
        QueueConfig(name="batch", max_cpus=machine.cpus, max_time_s=86400.0),
    ]

#: Local compiler invocations by architecture family — the heterogeneity
#: the translation tables exist to hide.
_LOCAL_F90 = {
    "nqs": "f90",            # Cray / NEC
    "loadleveler": "xlf90",  # IBM
    "vpp": "frt",            # Fujitsu
    "codine": "f90",
}

_RUN_PREFIX = {
    "nqs": "mpprun -n {cpus}",
    "loadleveler": "poe -procs {cpus}",
    "vpp": "vppexec -p {cpus}",
    "codine": "",
}


def default_translation_for(machine: MachineConfig) -> TranslationTable:
    """A plausible site-administrator-authored table for ``machine``."""
    return TranslationTable(
        vsite=machine.name,
        software={
            "f90": _LOCAL_F90[machine.dialect],
            "cc": "cc",
            "make": "make",
        },
        environment={"UC_THREADS": "OMP_NUM_THREADS"},
        run_prefix=_RUN_PREFIX[machine.dialect],
    )


class Vsite:
    """Execution host + spool space + resource page + translation table."""

    def __init__(
        self,
        sim: Simulator,
        machine: MachineConfig,
        queues: list[QueueConfig] | None = None,
        scheduler=None,
        translation: TranslationTable | None = None,
        resource_page: ResourcePage | None = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.name = machine.name
        self.batch = BatchSystem(
            sim, machine,
            queues=queues if queues is not None else default_queues_for(machine),
            scheduler=scheduler,
        )
        self.uspaces = UspaceManager(machine.name)
        self.translation = translation or default_translation_for(machine)
        self.resource_page = resource_page or self._default_page()

    def _default_page(self) -> ResourcePage:
        machine = self.machine
        max_time = max(q.max_time_s for q in self.batch.queues.values())
        editor = (
            ResourcePageEditor(self.name)
            .set_system(
                machine.architecture, machine.operating_system, machine.peak_gflops
            )
            .set_range("cpus", 1, machine.cpus)
            .set_range("time_s", 1, max_time)
            .set_range("memory_mb", 1, machine.total_memory_mb)
            .set_range("disk_permanent_mb", 0, 1_000_000)
            .set_range("disk_temporary_mb", 0, 1_000_000)
        )
        for abstract, local in self.translation.software.items():
            editor.add_compiler(abstract, invocation=local)
        return editor.publish()

    def capacity(self, usite: str) -> VsiteCapacity:
        """What the NJS may say about this Vsite's load: what its batch
        records show an outsider, and the published page.  Counts live
        jobs only, so a report costs O(queue), not O(history)."""
        return VsiteCapacity(
            usite=usite,
            vsite=self.name,
            sent_at=self.sim.now,
            total_cpus=self.machine.cpus,
            free_cpus=self.batch.free_cpus,
            queued_jobs=self.batch.pending_count,
            running_jobs=self.batch.running_count,
            backlog_cpu_s=self.batch.backlog_cpu_s(),
            speed_factor=self.machine.speed_factor,
            page=self.resource_page,
        )

    def still_queued(self, local_id: str) -> bool:
        """Whether batch job ``local_id`` has not started (nor ended)."""
        try:
            return self.batch.query(local_id).state is BatchState.QUEUED
        except BatchError:
            return False

    def __repr__(self) -> str:
        return f"<Vsite {self.name} ({self.machine.architecture})>"
