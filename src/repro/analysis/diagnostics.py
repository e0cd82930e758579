"""The typed diagnostic model shared by every analysis pass.

The paper's NJS "checks the AJO for consistency" before incarnation;
here every consistency finding — structural, dataflow, or resource — is
one :class:`Diagnostic` with a *stable* code, a severity, and the
action-id path locating it in the job tree.  Codes are grouped by pass:

* ``AJO1xx`` — tree structure (ids, destinations, cycles);
* ``AJO2xx`` — Uspace dataflow (staging, races, dead imports);
* ``AJO3xx`` — resource, software, and incarnation feasibility.

Codes are a wire contract: the gateway carries the primary code of a
rejected consignment in ``Reply.error_code``, and ``repro lint --json``
emits them for CI tooling, so they must never be renumbered.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field

from repro.ajo.dag import JobPlan
from repro.ajo.errors import ValidationError

__all__ = ["Severity", "Diagnostic", "AnalysisReport", "AnalysisError"]


class Severity(enum.Enum):
    """How bad a finding is: errors block consignment, the rest inform."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analysis finding, located by its action-id path.

    ``path`` walks the job tree from the root AJO down to the offending
    action (the analyzer's notion of a source span); ``code`` is the
    stable ``AJOnnn`` identifier tools key on.
    """

    code: str
    severity: Severity
    message: str
    path: tuple[str, ...]

    @property
    def action_id(self) -> str:
        """The id of the action the finding anchors to."""
        return self.path[-1] if self.path else ""

    def render(self) -> str:
        where = "/".join(self.path)
        return f"{self.code} {self.severity.value} @{where}: {self.message}"

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "path": list(self.path),
        }


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    """All findings of one ``analyze_ajo`` run, in deterministic order."""

    job_id: str
    job_name: str
    diagnostics: tuple[Diagnostic, ...]
    #: The plan the passes read (unset on a report built by hand).
    plan: JobPlan | None = field(default=None, repr=False, compare=False)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def notes(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.NOTE)

    @property
    def ok(self) -> bool:
        """True when nothing blocks consignment (warnings/notes allowed)."""
        return not self.errors

    def summary(self) -> str:
        counts = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.notes)} note(s)"
        )
        first = f"; first: {self.errors[0].render()}" if self.errors else ""
        return f"job {self.job_name!r} ({self.job_id}): {counts}{first}"

    def render(self) -> str:
        """Multi-line human-readable report (``repro lint`` output)."""
        lines = [self.summary()]
        lines.extend("  " + d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "job_id": self.job_id,
            "job_name": self.job_name,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "notes": len(self.notes),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class AnalysisError(ValidationError):
    """A static-analysis rejection: the report's errors block the job.

    Subclasses :class:`~repro.ajo.errors.ValidationError` so existing
    client-side error handling keeps working; the instance ``code`` is
    the primary diagnostic code (e.g. ``"AJO201"``), which the protocol
    edge carries in ``Reply.error_code``.
    """

    code = "ajo.analysis"

    def __init__(self, report: AnalysisReport) -> None:
        super().__init__(f"static analysis rejected AJO: {report.summary()}")
        self.report = report
        if report.errors:
            self.code = report.errors[0].code
