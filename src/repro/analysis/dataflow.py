"""Pass 2 — Uspace dataflow (``AJO2xx``).

Abstract interpretation of each job group's DAG over the files its
tasks produce and consume in the Uspace.  The producer model mirrors the
NJS runtime exactly (``Executor._run_execute`` in
:mod:`repro.server.njs.executor`): imports write their
destination, compiles their object files, links their output; a
dependency edge's ``files`` are materialized by its predecessor; an
execute task directly preceding an export/transfer implicitly produces
that file task's source; and sink execute tasks materialize what the
group owes its parent.  Anything the runtime would fail to find — or
find only by racing — is reported here instead of as a batch-tier
failure hours later.

Ordering uses the transitive closure of the dependency DAG (built on
:func:`~repro.ajo.dag.topological_order`): a producer counts only if it
is *ordered before* the reader; two writers of the same path with no
ordering between them are a write-write race.
"""

from __future__ import annotations

from repro.ajo.dag import predecessors_map, topological_order
from repro.ajo.errors import DependencyCycleError
from repro.ajo.job import AbstractJobObject
from repro.ajo.tasks import (
    CompileTask,
    ExecuteTask,
    ExportTask,
    ImportTask,
    LinkTask,
    TransferTask,
    UserTask,
)
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = [
    "dataflow_pass",
    "CODE_NEVER_PRODUCED",
    "CODE_READ_RACE",
    "CODE_WRITE_RACE",
    "CODE_DEAD_IMPORT",
    "CODE_UNSTAGED_INPUT",
    "CODE_UNPRODUCIBLE_PROMISE",
]

CODE_NEVER_PRODUCED = "AJO201"
CODE_READ_RACE = "AJO202"
CODE_WRITE_RACE = "AJO203"
CODE_DEAD_IMPORT = "AJO204"
CODE_UNSTAGED_INPUT = "AJO205"
CODE_UNPRODUCIBLE_PROMISE = "AJO206"


def dataflow_pass(
    job: AbstractJobObject, *, prestaged: frozenset[str] = frozenset()
) -> list[Diagnostic]:
    """Dataflow diagnostics for the whole tree.

    ``prestaged`` names Uspace paths guaranteed present before the root
    group starts (the forward-staged files of a forwarded sub-AJO).
    """
    diags: list[Diagnostic] = []
    _analyze_group(job, (job.id,), prestaged, frozenset(), diags)
    return diags


def _ancestor_closure(
    group: AbstractJobObject, order: list[str]
) -> dict[str, set[str]]:
    """child id -> every id ordered strictly before it (transitive)."""
    preds = predecessors_map(group)
    closure: dict[str, set[str]] = {}
    for cid in order:
        reach: set[str] = set()
        for p in preds[cid]:
            reach.add(p)
            reach |= closure[p]
        closure[cid] = reach
    return closure


def _execute_inputs(group: AbstractJobObject) -> list[tuple[str, str]]:
    """(task id, relative Uspace path) pairs an execute task reads.

    Absolute paths are assumed to name site-installed binaries outside
    the Uspace and are not tracked.
    """
    inputs: list[tuple[str, str]] = []
    for task in group.tasks():
        if isinstance(task, UserTask):
            paths = [task.executable]
        elif isinstance(task, CompileTask):
            paths = list(task.sources)
        elif isinstance(task, LinkTask):
            paths = list(task.objects)
        else:
            continue
        inputs.extend((task.id, p) for p in paths if not p.startswith("/"))
    return inputs


def _analyze_group(
    group: AbstractJobObject,
    path: tuple[str, ...],
    prestaged: frozenset[str],
    owed: frozenset[str],
    diags: list[Diagnostic],
) -> None:
    deps = group.dependencies
    children = {c.id: c for c in group.children}
    try:
        order = topological_order(group)
    except DependencyCycleError:
        order = []  # AJO104 already reported; ordering checks are moot.
    closure = _ancestor_closure(group, order) if order else None

    has_successor = {d.predecessor_id for d in deps}

    # -- the producer model (mirrors Executor._run_execute) -------------------
    producers: dict[str, set[str]] = {}

    def produce(file_path: str, producer_id: str) -> None:
        producers.setdefault(file_path, set()).add(producer_id)

    for child in group.children:
        if isinstance(child, ImportTask):
            produce(child.destination_path, child.id)
        elif isinstance(child, CompileTask):
            for obj in child.object_files():
                produce(obj, child.id)
        elif isinstance(child, LinkTask):
            produce(child.output, child.id)
    for dep in deps:
        for f in dep.files:
            produce(f, dep.predecessor_id)
    for task in group.tasks():
        if isinstance(task, (ExportTask, TransferTask)):
            for dep in deps:
                if dep.successor_id != task.id:
                    continue
                pred = children.get(dep.predecessor_id)
                if isinstance(pred, ExecuteTask):
                    produce(task.source_path, pred.id)
    if owed:
        for task in group.tasks():
            if isinstance(task, ExecuteTask) and task.id not in has_successor:
                for f in owed:
                    produce(f, task.id)

    # -- everything the group consumes (for dead-import detection) ------------
    consumed: set[str] = set(owed)
    for dep in deps:
        consumed.update(dep.files)
    for task in group.tasks():
        if isinstance(task, (ExportTask, TransferTask)):
            consumed.add(task.source_path)
    exec_inputs = _execute_inputs(group)
    consumed.update(p for _, p in exec_inputs)

    # -- AJO201 / AJO202: file-task reads ------------------------------------
    for task in group.tasks():
        if not isinstance(task, (ExportTask, TransferTask)):
            continue
        src = task.source_path
        if src in prestaged:
            continue
        kind = "export" if isinstance(task, ExportTask) else "transfer"
        prods = producers.get(src, set()) - {task.id}
        if not prods:
            diags.append(
                Diagnostic(
                    CODE_NEVER_PRODUCED,
                    Severity.ERROR,
                    f"{kind} task {task.id} reads Uspace file {src!r} that "
                    "no import, predecessor, or dependency edge produces",
                    path + (task.id,),
                )
            )
        elif closure is not None and not (prods & closure[task.id]):
            diags.append(
                Diagnostic(
                    CODE_READ_RACE,
                    Severity.ERROR,
                    f"{kind} task {task.id} reads Uspace file {src!r} but no "
                    f"producer ({', '.join(sorted(prods))}) is ordered before "
                    "it — the read races the write",
                    path + (task.id,),
                )
            )

    # -- AJO203: write-write conflicts between DAG-concurrent producers -------
    if closure is not None:
        reported: set[tuple[str, str, str]] = set()
        for file_path in sorted(producers):
            writers = sorted(producers[file_path])
            for i, a in enumerate(writers):
                for b in writers[i + 1:]:
                    if a in closure.get(b, set()) or b in closure.get(a, set()):
                        continue
                    key = (file_path, a, b)
                    if key in reported:
                        continue
                    reported.add(key)
                    diags.append(
                        Diagnostic(
                            CODE_WRITE_RACE,
                            Severity.ERROR,
                            f"tasks {a} and {b} both produce Uspace file "
                            f"{file_path!r} with no ordering between them "
                            "(write-write conflict)",
                            path + (a,),
                        )
                    )

    # -- AJO204: dead imports --------------------------------------------------
    for task in group.tasks():
        if isinstance(task, ImportTask) and task.destination_path not in consumed:
            diags.append(
                Diagnostic(
                    CODE_DEAD_IMPORT,
                    Severity.WARNING,
                    f"import task {task.id} stages {task.destination_path!r} "
                    "but nothing in the group consumes it",
                    path + (task.id,),
                )
            )

    # -- AJO205: execute inputs with no ordered producer -----------------------
    for task_id, src in exec_inputs:
        if src in prestaged:
            continue
        prods = producers.get(src, set()) - {task_id}
        if not prods:
            diags.append(
                Diagnostic(
                    CODE_UNSTAGED_INPUT,
                    Severity.WARNING,
                    f"execute task {task_id} expects {src!r} in the Uspace "
                    "but nothing stages or produces it",
                    path + (task_id,),
                )
            )
        elif closure is not None and not (prods & closure[task_id]):
            diags.append(
                Diagnostic(
                    CODE_UNSTAGED_INPUT,
                    Severity.WARNING,
                    f"execute task {task_id} expects {src!r} but no producer "
                    f"({', '.join(sorted(prods))}) is ordered before it",
                    path + (task_id,),
                )
            )

    # -- AJO206: promises to the parent nothing here can keep ------------------
    for f in sorted(owed):
        if not producers.get(f):
            diags.append(
                Diagnostic(
                    CODE_UNPRODUCIBLE_PROMISE,
                    Severity.WARNING,
                    f"job group {group.id} owes {f!r} to its parent but "
                    "contains nothing that could produce it",
                    path,
                )
            )

    # -- recurse into sub-groups with their staged/owed file sets --------------
    for sub in group.sub_jobs():
        sub_prestaged = frozenset(
            f for d in deps if d.successor_id == sub.id for f in d.files
        )
        sub_owed = frozenset(
            f for d in deps if d.predecessor_id == sub.id for f in d.files
        )
        _analyze_group(sub, path + (sub.id,), sub_prestaged, sub_owed, diags)
