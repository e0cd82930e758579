"""The typed finding model of the developer linter.

Mirrors :mod:`repro.analysis.diagnostics` — the consign-time analyzer's
``Diagnostic``/``AnalysisReport`` pair — but anchored in *source* space
(file + line) rather than action-id space, because here the artifact
under analysis is the codebase itself.  Every finding is an error: any
finding fails ``repro devlint``, exactly as an error blocks a
consignment.

Codes are stable and grouped by rule pack:

* ``RD1xx`` — determinism (wall clock, unseeded randomness, unordered
  iteration escaping into observable order);
* ``RD4xx`` — ownership (module ``__getattr__``, private state, passes
  over file content).

Like the AJO codes, RD codes are a contract (pragmas and CI key on
them) and must never be renumbered.  ``RD2xx`` (README error table) and
``RD3xx`` (metric and span names) are retired and not reused: the
registries refuse a bad code or name themselves, and tier-1 tests check
the README table and dead registry entries.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

__all__ = ["DevDiagnostic", "DevReport"]


@dataclass(frozen=True, slots=True)
class DevDiagnostic:
    """One developer-lint finding, located by file and 1-based line.

    ``file`` is the repo-relative POSIX path.
    """

    code: str
    message: str
    file: str
    line: int

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.code} error: {self.message}"

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "code": self.code,
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
    def ok(self) -> bool:
        """True when there is no finding."""
        return not self.diagnostics

    def summary(self) -> str:
        suppressed = (
            f", {self.suppressed} suppressed" if self.suppressed else ""
        )
        return (
            f"devlint: {len(self.diagnostics)} error(s) across "
            f"{self.files_scanned} file(s){suppressed}"
        )

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "ok": self.ok,
            "errors": len(self.diagnostics),
            "suppressed": self.suppressed,
            "files_scanned": self.files_scanned,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
