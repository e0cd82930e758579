"""Static analysis of AJO trees: structure, dataflow, and feasibility.

The paper's NJS "checks the AJO for consistency" before incarnation and
the JPA's resource pages exist so the user cannot build a job the
destination system cannot run (section 5.4).  This package is that idea
taken seriously: a multi-pass analyzer over the whole job tree producing
typed :class:`~repro.analysis.diagnostics.Diagnostic` findings with
stable codes, run at all three tiers —

* the **JPA** lints before consigning (errors block, warnings inform),
* the **NJS** re-runs it on arrival and rejects with the primary
  diagnostic code carried over the wire ("never trust the client"),
* ``repro lint`` runs it from the command line for CI use.

Passes (each its own module):

1. :mod:`~repro.analysis.structure` — tree structure, ``AJO1xx``;
2. :mod:`~repro.analysis.dataflow` — Uspace dataflow and staging races,
   ``AJO2xx``;
3. :mod:`~repro.analysis.feasibility` — resource pages, software,
   routes, and the incarnation dry-run, ``AJO3xx``.
"""

from __future__ import annotations

from repro.ajo.dag import JobPlan
from repro.ajo.job import AbstractJobObject
from repro.analysis.context import AnalysisContext
from repro.analysis.dataflow import dataflow_pass
from repro.analysis.diagnostics import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.feasibility import feasibility_pass
from repro.analysis.structure import structure_pass

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "analyze_ajo",
    "structure_pass",
    "dataflow_pass",
    "feasibility_pass",
]


def analyze_ajo(
    job: AbstractJobObject,
    context: AnalysisContext | None = None,
    *,
    require_user: bool = True,
) -> AnalysisReport:
    """Run all three passes over ``job``; deterministic for a given tree.

    ``context`` supplies the environment knowledge (resource pages,
    dialects, routes) of the calling tier; ``None`` means analyze with
    no environment, which still gives the structure and dataflow passes
    full strength.  ``require_user`` is False for forwarded sub-AJOs,
    whose identity arrives with the consignment rather than in the tree.
    The report hands on the plan the passes read.
    """
    ctx = context if context is not None else AnalysisContext()
    plan = JobPlan.of(job, ctx.local_usite, ctx.owed)
    diags = structure_pass(plan, require_user=require_user)
    diags.extend(dataflow_pass(plan, prestaged=ctx.prestaged))
    diags.extend(feasibility_pass(job, ctx))
    return AnalysisReport(
        job_id=job.id, job_name=job.name, diagnostics=tuple(diags), plan=plan
    )
