"""RD2xx — the README error table against the error-code registry.

The stable dotted ``code`` carried by every :class:`repro.errors.ReproError`
is a wire contract: the gateway serializes it into ``Reply.error_code``,
the client re-raises by it (``Reply.unwrap``), fault tooling keys on it.
The registry (``repro.errors.error_code_registry``) is the single source
of truth and itself refuses a class with no code of its own, a malformed
code, or a duplicate; what is left to lint is the one other place codes
are written down:

* ``RD204`` — a code claimed by a README error table is not registered
  (documentation promising codes the middleware never raises);
* ``RD205`` — a registered code appears nowhere in the README error
  tables (the table is the user-facing contract; it must be complete).
"""

from __future__ import annotations

import re
import typing

from repro import errors
from repro.devlint.diagnostics import DevDiagnostic, Severity
from repro.devlint.engine import Project, ProjectRule

__all__ = ["registry_rules", "readme_table_codes"]


def readme_table_codes(readme: str) -> list[tuple[int, str]]:
    """Backticked dotted codes claimed by README tables with a Code column.

    Returns ``(1-based line, code)`` pairs.  Only tables whose header
    row names a ``code`` column participate, so metric-name tables and
    module references never false-positive.
    """
    claimed: list[tuple[int, str]] = []
    in_code_table = False
    for lineno, line in enumerate(readme.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            in_code_table = False
            continue
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        if all(set(c) <= {"-", ":", " "} for c in cells):
            continue  # separator row keeps the current table state
        header_like = any(c.lower() == "code" for c in cells)
        if not in_code_table and header_like:
            in_code_table = True
            continue
        if not in_code_table:
            continue
        for token in re.findall(r"`([^`]+)`", stripped):
            if errors.CODE_SHAPE.match(token):
                claimed.append((lineno, token))
    return claimed


class ReadmeCodeTableRule(ProjectRule):
    """RD204 + RD205: the README error tables match the registry."""

    code = "RD204"

    def check_project(
        self, project: Project
    ) -> typing.Iterator[DevDiagnostic]:
        registered = dict(errors.error_code_registry())
        claimed = readme_table_codes(project.readme)
        for lineno, token in claimed:
            if token not in registered:
                yield DevDiagnostic(
                    code="RD204", severity=Severity.ERROR,
                    message=(
                        f"README table claims code {token!r}, which no "
                        "registered error class declares"
                    ),
                    file="README.md", line=lineno,
                )
        documented = {token for _, token in claimed}
        for code in sorted(set(registered) - documented):
            yield DevDiagnostic(
                code="RD205", severity=Severity.ERROR,
                message=(
                    f"registered code {code!r} "
                    f"({registered[code].__qualname__}) is missing from the "
                    "README error tables"
                ),
                file="README.md", line=0,
            )


def registry_rules() -> list[ProjectRule]:
    return [ReadmeCodeTableRule()]
