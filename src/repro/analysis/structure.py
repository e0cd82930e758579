"""Pass 1 — tree structure (``AJO1xx``).

Structural findings as diagnostics, so that they share one report with
the dataflow and resource findings: unique ids, acyclic groups,
destinations named, user identity present, transfers leaving their own
Usite.
"""

from __future__ import annotations

from repro.ajo.dag import JobPlan
from repro.ajo.tasks import TransferTask
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = [
    "structure_pass",
    "CODE_NO_USER",
    "CODE_DUPLICATE_ID",
    "CODE_NO_VSITE",
    "CODE_CYCLE",
    "CODE_SELF_TRANSFER",
    "CODE_EMPTY_GROUP",
]

CODE_NO_USER = "AJO101"
CODE_DUPLICATE_ID = "AJO102"
CODE_NO_VSITE = "AJO103"
CODE_CYCLE = "AJO104"
CODE_SELF_TRANSFER = "AJO105"
CODE_EMPTY_GROUP = "AJO106"


def structure_pass(
    plan: JobPlan, *, require_user: bool = True
) -> list[Diagnostic]:
    """Structural diagnostics for the whole tree, in deterministic order.

    ``require_user`` is False for sub-AJOs forwarded between NJSs, which
    inherit the user identity from the root consignment.
    """
    job = plan.group
    diags: list[Diagnostic] = []
    root_path = (job.id,)

    if require_user and not job.user_dn:
        diags.append(
            Diagnostic(
                CODE_NO_USER,
                Severity.ERROR,
                f"root AJO {job.id} carries no user DN; the certificate DN is "
                "the unique UNICORE user identification",
                root_path,
            )
        )

    seen_ids: set[str] = set()
    for action in job.walk():
        if action.id in seen_ids:
            diags.append(
                Diagnostic(
                    CODE_DUPLICATE_ID,
                    Severity.ERROR,
                    f"duplicate action id {action.id} in AJO tree",
                    root_path + (action.id,),
                )
            )
        seen_ids.add(action.id)

    _group_checks(plan, root_path, diags)
    return diags


def _group_checks(
    plan: JobPlan, path: tuple[str, ...], diags: list[Diagnostic]
) -> None:
    group = plan.group
    if group.tasks() and not group.vsite:
        diags.append(
            Diagnostic(
                CODE_NO_VSITE,
                Severity.ERROR,
                f"job group {group.id} ({group.name!r}) contains tasks but "
                "names no destination Vsite",
                path,
            )
        )
    if plan.cycle:
        diags.append(Diagnostic(CODE_CYCLE, Severity.ERROR, plan.cycle, path))

    for task in group.tasks():
        if isinstance(task, TransferTask) and task.destination_usite == group.usite:
            diags.append(
                Diagnostic(
                    CODE_SELF_TRANSFER,
                    Severity.ERROR,
                    f"transfer task {task.id} targets its own Usite "
                    f"{group.usite!r}; use an export instead",
                    path + (task.id,),
                )
            )

    if not group.children:
        diags.append(
            Diagnostic(
                CODE_EMPTY_GROUP,
                Severity.NOTE,
                f"job group {group.id} ({group.name!r}) contains no actions",
                path,
            )
        )

    for sub_id, sub in plan.subs.items():
        _group_checks(sub, path + (sub_id,), diags)
