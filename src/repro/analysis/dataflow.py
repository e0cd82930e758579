"""Pass 2 — Uspace dataflow (``AJO2xx``).

Abstract interpretation of each job group's DAG over the files its
tasks produce and consume in the Uspace.  A file's producers are the
intrinsic products (imports write their destination, compiles their
object files, links their output) plus every file a child promises in
the job's :class:`~repro.ajo.dag.JobPlan` — the one value the NJS
executor also incarnates and stages from, so the two agree by
construction (``test_analyzer_and_runtime_agree_on_a_dependency_file``
pins it).  A sub-group is analyzed with what it owes as its plan says.
Anything the runtime would fail to find — or find only by racing — is
reported here instead of as a batch-tier failure hours later.

Ordering uses the transitive closure of the dependency DAG, over the
plan's inbound edges: a producer counts only if it is *ordered before*
the reader; two writers of the same path with no ordering between them
are a write-write race.
"""

from __future__ import annotations

from repro.ajo.dag import JobPlan
from repro.ajo.job import AbstractJobObject
from repro.ajo.tasks import (
    CompileTask,
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
    plan: JobPlan, *, prestaged: frozenset[str] = frozenset()
) -> list[Diagnostic]:
    """Dataflow diagnostics for the whole planned tree.

    ``prestaged`` names Uspace paths guaranteed present before the root
    group starts (the forward-staged files of a forwarded sub-AJO).
    """
    diags: list[Diagnostic] = []
    _analyze_group(plan, (plan.group.id,), prestaged, diags)
    return diags


def _ancestors(plan: JobPlan, cid: str) -> set[str]:
    """Every child ordered strictly before ``cid``, found when asked: a
    chain of tasks that read no file costs nothing."""
    reach: set[str] = set()
    stack = [cid]
    while stack:
        for pred in plan.predecessors(stack.pop()):
            if pred not in reach:
                reach.add(pred)
                stack.append(pred)
    return reach


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
    plan: JobPlan,
    path: tuple[str, ...],
    prestaged: frozenset[str],
    diags: list[Diagnostic],
) -> None:
    group = plan.group
    owed = plan.owed
    # No order for a cycle: AJO104 already reported; ordering checks are moot.
    ordered = bool(plan.order)
    promised = plan.promised

    # -- the producers: intrinsic products, then the promised files -----------
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
    for child_id, files in promised.items():
        for f in files:
            produce(f, child_id)

    # -- everything the group consumes (for dead-import detection) ------------
    consumed: set[str] = set(owed)
    for dep in group.dependencies:
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
        elif ordered and not (prods & _ancestors(plan, task.id)):
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
    if ordered:
        reported: set[tuple[str, str, str]] = set()
        for file_path in sorted(producers):
            writers = sorted(producers[file_path])
            for i, a in enumerate(writers):
                for b in writers[i + 1:]:
                    if a in _ancestors(plan, b) or b in _ancestors(plan, a):
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
        elif ordered and not (prods & _ancestors(plan, task_id)):
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
    for f in sorted(set(owed)):
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
    for sub_id, sub in plan.subs.items():
        sub_prestaged = frozenset(f for d in plan.inbound[sub_id] for f in d.files)
        _analyze_group(sub, path + (sub_id,), sub_prestaged, diags)
