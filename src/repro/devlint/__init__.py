"""Developer lint: static analysis of the codebase's own invariants.

PR 4 gave the *user's* artifact (the AJO) consign-time static analysis;
this package points the same discipline at the codebase itself.  The
reproduction's crown-jewel guarantees — byte-identical determinism,
stable error codes across the protocol edge, registry-consistent
counter/span names, one owner per piece of server state — were
enforced only by convention; ``repro devlint`` makes each of them a
machine-checked gate (see :mod:`repro.devlint.diagnostics` for the
RD1xx–RD4xx code families).

Usage::

    python -m repro devlint                 # human-readable, exit 1 on errors
    python -m repro devlint --json          # machine-readable, for CI

or programmatically::

    from repro.devlint import run_devlint
    report = run_devlint()
    assert report.ok, report.render()
"""

from repro.devlint.diagnostics import DevDiagnostic, DevReport, Severity
from repro.devlint.engine import (
    FileRule,
    Project,
    ProjectRule,
    SourceFile,
    default_rules,
    discover_project,
    run_devlint,
)

__all__ = [
    "DevDiagnostic",
    "DevReport",
    "FileRule",
    "Project",
    "ProjectRule",
    "Severity",
    "SourceFile",
    "default_rules",
    "discover_project",
    "run_devlint",
]
