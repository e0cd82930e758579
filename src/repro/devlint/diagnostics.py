"""The typed finding model of the developer linter.

Mirrors :mod:`repro.analysis.diagnostics` — the consign-time analyzer's
``Diagnostic``/``AnalysisReport`` pair — but anchored in *source* space
(file + line) rather than action-id space, because here the artifact
under analysis is the codebase itself.  The severity vocabulary is
shared: :class:`~repro.analysis.diagnostics.Severity` is reused, and
``error`` findings fail ``repro devlint`` exactly as they block a
consignment.

Codes are stable and grouped by rule pack:

* ``RD1xx`` — determinism (wall clock, unseeded randomness, unordered
  iteration escaping into observable order);
* ``RD2xx`` — the README error table against the ``repro.errors``
  registry;
* ``RD3xx`` — observability registry consistency (counter/histogram/
  span names vs :mod:`repro.observability.registry`);
* ``RD4xx`` — ownership (module ``__getattr__``, private state, passes
  over file content).

Like the AJO codes, RD codes are a contract (pragmas and CI key on
them) and must never be renumbered.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.analysis.diagnostics import Severity

__all__ = ["DevDiagnostic", "DevReport", "Severity"]


@dataclass(frozen=True, slots=True)
class DevDiagnostic:
    """One developer-lint finding, located by file and line.

    ``file`` is the repo-relative POSIX path; ``line`` is 1-based
    (0 marks a whole-file or whole-project finding).
    """

    code: str
    severity: Severity
    message: str
    file: str
    line: int = 0

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.line else self.file
        return f"{where}: {self.code} {self.severity.value}: {self.message}"

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
        }


@dataclass(frozen=True, slots=True)
class DevReport:
    """All findings of one ``run_devlint`` pass, in deterministic order."""

    diagnostics: tuple[DevDiagnostic, ...]
    #: Findings dropped by inline pragmas (still counted, for honesty).
    suppressed: int = 0
    #: Files scanned, so "0 findings" is distinguishable from "0 files".
    files_scanned: int = 0

    @property
    def errors(self) -> tuple[DevDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[DevDiagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.WARNING
        )

    @property
    def ok(self) -> bool:
        """True when nothing fails the gate (warnings/notes allowed)."""
        return not self.errors

    def summary(self) -> str:
        suppressed = (
            f", {self.suppressed} suppressed" if self.suppressed else ""
        )
        return (
            f"devlint: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) across "
            f"{self.files_scanned} file(s){suppressed}"
        )

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": self.suppressed,
            "files_scanned": self.files_scanned,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
