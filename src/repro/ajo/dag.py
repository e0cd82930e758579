"""A job's plan: what its dependency graph says, derived once.

The NJS "makes sure that the dependent parts of the UNICORE job are
scheduled in the predefined sequence" (section 4.2), and that "data sets
created by the predecessor are available to the successor" (section
5.7).  :class:`JobPlan` is those facts as one immutable value, built in
one pass over the AJO.  A site's arrival analysis plans a job once per
consign or replay, and the analyzer, the executor and forwarding read
that plan; the JPA plans a job for its own
analysis.  A plan lives while its job runs and is never persisted.
"""

from __future__ import annotations

import typing
from collections import deque
from dataclasses import dataclass

from repro.ajo.errors import DependencyCycleError
from repro.ajo.job import AbstractJobObject, Dependency
from repro.ajo.tasks import ExecuteTask, ExportTask, FileSpace, ImportTask, TransferTask

__all__ = ["JobPlan", "topological_order", "critical_path_length"]


@dataclass(frozen=True, slots=True, eq=False)
class JobPlan:
    """One job group's plan, as one site sees it."""

    group: AbstractJobObject
    #: The children in dependency order (Kahn's, ties in authoring order);
    #: empty when :attr:`cycle` says why there is none.
    order: tuple[str, ...]
    cycle: str
    #: child id -> the dependencies that end at it, as declared.
    inbound: typing.Mapping[str, tuple[Dependency, ...]]
    #: What the group owes its parent (a forwarded root: its return files).
    owed: tuple[str, ...]
    #: child id -> the Uspace files it must leave behind: those on its
    #: outgoing edges; for an execute task also the source of each export
    #: or transfer it directly precedes, and for a sink one :attr:`owed`.
    promised: typing.Mapping[str, tuple[str, ...]]
    #: The subtree's WORKSTATION import sources (section 5.6), group ids,
    #: and Usites the planning site forwards a group to, in tree order.
    imports: tuple[str, ...]
    groups: tuple[str, ...]
    usites: tuple[str, ...]
    #: sub-group id -> its plan.
    subs: typing.Mapping[str, "JobPlan"]

    @classmethod
    def of(
        cls, job: AbstractJobObject, usite: str = "", owed: typing.Iterable[str] = ()
    ) -> "JobPlan":
        """Plan ``job`` at the site ``usite`` (any site for ``""``),
        owing its parent ``owed``."""
        return _plan(job, tuple(owed), usite, True)

    def predecessors(self, child_id: str) -> set[str]:
        return {dep.predecessor_id for dep in self.inbound[child_id]}


def _plan(
    group: AbstractJobObject, owed: tuple[str, ...], usite: str, local: bool
) -> JobPlan:
    children = group.children
    by_id = {child.id: child for child in children}
    inbound: dict[str, list[Dependency]] = {cid: [] for cid in by_id}
    # Distinct neighbours in first-declared order: an edge declared twice
    # (once per file set, say) releases its successor once.
    preds: dict[str, dict[str, None]] = {cid: {} for cid in by_id}
    succs: dict[str, dict[str, None]] = {cid: {} for cid in by_id}
    files: dict[str, list[str]] = {cid: [] for cid in by_id}
    for dep in group.dependencies:
        inbound[dep.successor_id].append(dep)
        preds[dep.successor_id][dep.predecessor_id] = None
        succs[dep.predecessor_id][dep.successor_id] = None
        files[dep.predecessor_id].extend(dep.files)
    for child in children:
        if isinstance(child, (ExportTask, TransferTask)):
            for pred in preds[child.id]:
                if isinstance(by_id[pred], ExecuteTask):
                    files[pred].append(child.source_path)
    for child in children:
        if isinstance(child, ExecuteTask) and not succs[child.id]:
            files[child.id].extend(owed)
    promised = {cid: tuple(paths) for cid, paths in files.items()}

    indegree = {cid: len(p) for cid, p in preds.items()}
    order: list[str] = []
    queue = deque(cid for cid, d in indegree.items() if d == 0)
    while queue:
        cid = queue.popleft()
        order.append(cid)
        for succ in succs[cid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    cycle = ""
    if len(order) != len(indegree):
        stuck = sorted(cid for cid, d in indegree.items() if d > 0)
        cycle = f"job {group.id}: dependency cycle among {stuck}"
        order = []

    imports: list[str] = []
    groups = [group.id]
    usites: dict[str, None] = {}
    subs: dict[str, JobPlan] = {}
    for child in children:
        if isinstance(child, ImportTask) and child.source_space == FileSpace.WORKSTATION:
            imports.append(child.source_path)
        elif isinstance(child, AbstractJobObject):
            here = local and child.usite in ("", usite)
            sub = subs[child.id] = _plan(child, promised[child.id], usite, here)
            imports += sub.imports
            groups += sub.groups
            usites.update(dict.fromkeys(sub.usites, None))
            if local and not here:
                usites.setdefault(child.usite)
    return JobPlan(
        group=group, order=tuple(order), cycle=cycle,
        inbound={cid: tuple(deps) for cid, deps in inbound.items()},
        owed=owed, promised=promised, imports=tuple(imports),
        groups=tuple(groups), usites=tuple(usites), subs=subs,
    )


def _acyclic(plan: JobPlan) -> JobPlan:
    if plan.cycle:
        raise DependencyCycleError(plan.cycle)
    return plan


def topological_order(job: AbstractJobObject) -> list[str]:
    """The plan's order of ``job``'s direct children; raises on cycles."""
    return list(_acyclic(JobPlan.of(job)).order)


def critical_path_length(
    job: AbstractJobObject,
    weight: typing.Callable[[str], float] | None = None,
) -> float:
    """Length of the longest weighted path through the job graph.

    ``weight`` maps a child id to its cost (default 1.0 per action).
    """
    w = weight or (lambda _cid: 1.0)
    plan = _acyclic(JobPlan.of(job))
    finish: dict[str, float] = {}
    for cid in plan.order:
        start = max((finish[p] for p in plan.predecessors(cid)), default=0.0)
        finish[cid] = start + w(cid)
    return max(finish.values(), default=0.0)
