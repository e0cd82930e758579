"""Vendor batch-script dialects.

The NJS must "translate the abstract specifications into the local system
specific nomenclature using translation tables" (section 5.5).  A
:class:`Dialect` is the target of that translation: it renders resource
directives in the vendor's syntax, names the vendor's job states, and can
*parse its own headers back* — which is how the batch-system simulator
verifies that an incarnated script really is in the local dialect (a
wrong-dialect submission is rejected exactly like a malformed script on a
real system).

Dialects implemented: NQS (Cray T3E / NEC SX-4), LoadLeveler (IBM SP-2),
the VPP queueing system (Fujitsu VPP/700), and Codine — "the resource
management system Codine provided by Genias Software GmbH" the paper's
NJS used inside (section 5.1), here a destination dialect any machine
may name.
"""

from __future__ import annotations

from repro.batch.errors import BatchError
from repro.resources.model import ResourceSet

__all__ = [
    "Dialect",
    "NQSDialect",
    "LoadLevelerDialect",
    "VPPDialect",
    "CodineDialect",
    "dialect_for",
]


class Dialect:
    """Base class: renders and parses vendor resource directives."""

    #: Registry key and human name; subclasses set these.
    key = "abstract"
    display_name = "Abstract"
    #: Local state names, in lifecycle order (queued, running, done, failed).
    state_names: tuple[str, str, str, str] = ("QUEUED", "RUNNING", "DONE", "FAILED")

    def directive_prefix(self) -> str:
        raise NotImplementedError

    def render_directives(
        self, job_name: str, queue: str, resources: ResourceSet
    ) -> list[str]:
        """The header lines of a job script in this dialect."""
        raise NotImplementedError

    def render_script(
        self,
        job_name: str,
        queue: str,
        resources: ResourceSet,
        body_lines: list[str],
    ) -> str:
        header = ["#!/bin/sh"] + self.render_directives(job_name, queue, resources)
        return "\n".join(header + list(body_lines)) + "\n"

    def parse_directives(self, script: str) -> dict[str, str]:
        """Extract ``directive -> value`` pairs from a script's header.

        Raises :class:`BatchError` if no directive of this dialect appears
        — the "wrong dialect submitted" failure mode.
        """
        prefix = self.directive_prefix()
        found: dict[str, str] = {}
        for line in script.splitlines():
            if not line.startswith(prefix):
                continue
            rest = line[len(prefix):].strip()
            if not rest:
                continue
            key, _, value = rest.partition(" ")
            found[key] = value.strip()
        if not found:
            raise BatchError(
                f"script contains no {self.display_name} directives "
                f"(expected lines starting with {prefix!r})"
            )
        return found

    def local_state(self, phase: str) -> str:
        """Map a uniform phase (queued/running/done/failed) to the local name."""
        mapping = dict(
            zip(("queued", "running", "done", "failed"), self.state_names,
                strict=True)
        )
        try:
            return mapping[phase]
        except KeyError:
            raise BatchError(f"unknown phase {phase!r}") from None


class NQSDialect(Dialect):
    """NQS, as on the Cray T3E (UNICOS/mk) and NEC SX-4 (SUPER-UX)."""

    key = "nqs"
    display_name = "NQS"
    state_names = ("QUEUED", "RUNNING", "EXITING", "ABORTED")

    def directive_prefix(self) -> str:
        return "#QSUB"

    def render_directives(self, job_name, queue, resources):
        return [
            f"#QSUB -r {job_name}",
            f"#QSUB -q {queue}",
            f"#QSUB -lP {resources.cpus}",
            f"#QSUB -lT {int(resources.time_s)}",
            f"#QSUB -lM {int(resources.memory_mb)}mb",
        ]


class LoadLevelerDialect(Dialect):
    """IBM LoadLeveler, as on the SP-2 (AIX)."""

    key = "loadleveler"
    display_name = "LoadLeveler"
    state_names = ("Idle", "Running", "Completed", "Removed")

    def directive_prefix(self) -> str:
        return "#@"

    def render_directives(self, job_name, queue, resources):
        return [
            f"#@ job_name = {job_name}",
            f"#@ class = {queue}",
            f"#@ node = {resources.cpus}",
            f"#@ wall_clock_limit = {int(resources.time_s)}",
            f"#@ resources = ConsumableMemory({int(resources.memory_mb)}mb)",
            "#@ queue",
        ]

    def parse_directives(self, script: str) -> dict[str, str]:
        found: dict[str, str] = {}
        for line in script.splitlines():
            if not line.startswith("#@"):
                continue
            rest = line[2:].strip()
            key, _, value = rest.partition("=")
            found[key.strip()] = value.strip()
        if not found:
            raise BatchError(
                "script contains no LoadLeveler directives (expected '#@ ...')"
            )
        return found


class VPPDialect(Dialect):
    """The Fujitsu VPP/700 queueing system (UXP/V)."""

    key = "vpp"
    display_name = "VPP"
    state_names = ("QUE", "RUN", "END", "ERR")

    def directive_prefix(self) -> str:
        return "#PJM"

    def render_directives(self, job_name, queue, resources):
        return [
            f"#PJM -N {job_name}",
            f"#PJM -q {queue}",
            f"#PJM -p {resources.cpus}",
            f"#PJM -t {int(resources.time_s)}",
            f"#PJM -m {int(resources.memory_mb)}",
        ]


class CodineDialect(Dialect):
    """Codine (Genias Software), the paper's NJS-internal system (section
    5.1), as a destination dialect."""

    key = "codine"
    display_name = "Codine"
    state_names = ("qw", "r", "d", "Eqw")

    def directive_prefix(self) -> str:
        return "#$"

    def render_directives(self, job_name, queue, resources):
        return [
            f"#$ -N {job_name}",
            f"#$ -q {queue}",
            f"#$ -pe mpi {resources.cpus}",
            f"#$ -l h_rt={int(resources.time_s)}",
            f"#$ -l h_vmem={int(resources.memory_mb)}M",
        ]


_DIALECTS: dict[str, Dialect] = {
    d.key: d for d in (NQSDialect(), LoadLevelerDialect(), VPPDialect(), CodineDialect())
}


def dialect_for(key: str) -> Dialect:
    """The (stateless, shared) dialect instance for ``key``."""
    try:
        return _DIALECTS[key]
    except KeyError:
        raise BatchError(
            f"unknown dialect {key!r}; available: {sorted(_DIALECTS)}"
        ) from None
