"""DAG utilities over a job group's dependency edges.

The NJS "makes sure that the dependent parts of the UNICORE job are
scheduled in the predefined sequence" (section 4.2).  These helpers give
it (and the JPA's validation) the standard DAG operations: cycle-checked
topological order, the ready set given completed predecessors, and the
critical-path length used by experiment E7.

They also state a group's file contract once, for the JPA, the arrival
analysis and the NJS alike: :func:`workstation_imports` and
:func:`promised_files`.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.ajo.errors import DependencyCycleError
from repro.ajo.job import AbstractJobObject
from repro.ajo.tasks import ExecuteTask, ExportTask, FileSpace, ImportTask, TransferTask

__all__ = [
    "topological_order",
    "ready_actions",
    "critical_path_length",
    "predecessors_map",
    "workstation_imports",
    "promised_files",
]


def _edges(job: AbstractJobObject) -> list[tuple[str, str]]:
    return [(d.predecessor_id, d.successor_id) for d in job.dependencies]


def predecessors_map(job: AbstractJobObject) -> dict[str, set[str]]:
    """child id → set of predecessor ids (direct children only)."""
    preds: dict[str, set[str]] = {c.id: set() for c in job.children}
    for pred, succ in _edges(job):
        preds[succ].add(pred)
    return preds


def workstation_imports(group: AbstractJobObject) -> list[str]:
    """Every WORKSTATION import source in ``group``'s subtree, in tree
    order: the files that travel with the job (section 5.6)."""
    return [
        action.source_path
        for action in group.walk()
        if isinstance(action, ImportTask)
        and action.source_space == FileSpace.WORKSTATION
    ]


def promised_files(
    group: AbstractJobObject, owed: typing.Collection[str] = ()
) -> dict[str, tuple[str, ...]]:
    """child id → the Uspace files that child must leave behind, so that
    "data sets created by the predecessor are available to the
    successor" (section 5.7).

    Every child owes the files on its outgoing edges.  An execute task
    also owes the source of each export or transfer it directly
    precedes, and a sink execute task owes ``owed``, what the group
    itself owes its parent.  A sub-group's entry is what it owes
    ``group``: run it with that entry as its own ``owed``.
    """
    files: dict[str, list[str]] = {c.id: [] for c in group.children}
    for dep in group.dependencies:
        files[dep.predecessor_id].extend(dep.files)
    for child in group.children:
        if not isinstance(child, ExecuteTask):
            continue
        successors = {
            d.successor_id for d in group.dependencies
            if d.predecessor_id == child.id
        }
        files[child.id] += [
            t.source_path
            for t in group.tasks()
            if isinstance(t, (ExportTask, TransferTask)) and t.id in successors
        ]
        if not successors:
            files[child.id] += owed
    return {cid: tuple(paths) for cid, paths in files.items()}


def topological_order(job: AbstractJobObject) -> list[str]:
    """Kahn's algorithm over the direct children; raises on cycles.

    Ties (multiple ready actions) resolve in insertion order, so the
    result is deterministic and matches the user's authoring order where
    the dependencies permit.
    """
    preds = predecessors_map(job)
    indegree = {cid: len(p) for cid, p in preds.items()}
    successors: dict[str, list[str]] = {cid: [] for cid in indegree}
    seen: set[tuple[str, str]] = set()
    for pred, succ in _edges(job):
        # A user may declare the same edge twice (e.g. once per transferred
        # file set).  Indegrees come from the deduplicated predecessor sets,
        # so the successor lists must be deduplicated to match — otherwise a
        # repeated edge decrements its successor more than once and releases
        # it before its *other* predecessors have run.
        if (pred, succ) in seen:
            continue
        seen.add((pred, succ))
        successors[pred].append(succ)

    order: list[str] = []
    queue = deque(cid for cid in indegree if indegree[cid] == 0)
    while queue:
        cid = queue.popleft()
        order.append(cid)
        for succ in successors[cid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    if len(order) != len(indegree):
        stuck = sorted(cid for cid, d in indegree.items() if d > 0)
        raise DependencyCycleError(
            f"job {job.id}: dependency cycle among {stuck}"
        )
    return order


def ready_actions(
    job: AbstractJobObject, completed: typing.Collection[str]
) -> list[str]:
    """Children whose predecessors are all in ``completed`` and which are
    not themselves completed — what the NJS may deliver next."""
    done = set(completed)
    return [
        cid
        for cid, preds in predecessors_map(job).items()
        if cid not in done and preds <= done
    ]


def critical_path_length(
    job: AbstractJobObject,
    weight: typing.Callable[[str], float] | None = None,
) -> float:
    """Length of the longest weighted path through the job graph.

    ``weight`` maps a child id to its cost (default 1.0 per action).
    """
    w = weight or (lambda _cid: 1.0)
    order = topological_order(job)
    preds = predecessors_map(job)
    finish: dict[str, float] = {}
    for cid in order:
        start = max((finish[p] for p in preds[cid]), default=0.0)
        finish[cid] = start + w(cid)
    return max(finish.values(), default=0.0)

