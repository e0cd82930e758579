"""Developer lint: static analysis of the codebase's own invariants.

PR 4 gave the *user's* artifact (the AJO) consign-time static analysis;
this package points the same discipline at the codebase itself.  Two
of the reproduction's guarantees can be read off one file's AST —
byte-identical determinism and one owner per piece of server state —
and ``repro devlint`` makes each a machine-checked gate (see
:mod:`repro.devlint.diagnostics` for the RD1xx and RD4xx code
families).  The guarantees that need the whole tree are not linted:
metric and span names are refused at first mint
(:mod:`repro.observability.registry`), error codes when the registry
builds (``repro.errors.error_code_registry``), and tier-1 tests hold
the README error table and dead registry entries.

Usage::

    python -m repro devlint                 # human-readable, exit 1 on errors
    python -m repro devlint --json          # machine-readable, for CI

or programmatically::

    from repro.devlint import run_devlint
    report = run_devlint()
    assert report.ok, report.render()
"""

from repro.devlint.diagnostics import DevDiagnostic, DevReport
from repro.devlint.engine import (
    FileRule,
    Project,
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
    "SourceFile",
    "default_rules",
    "discover_project",
    "run_devlint",
]
