"""RD2xx — error-code registry consistency.

The stable dotted ``code`` carried by every :class:`repro.errors.ReproError`
is a wire contract: the gateway serializes it into ``Reply.error_code``,
the client re-raises by it (``Reply.unwrap``), fault tooling keys on it.
The registry (``repro.errors.error_code_registry``) is the single source
of truth; these rules keep every other appearance of a code consistent
with it:

* ``RD201`` — a ``ReproError`` subclass declares no ``code`` of its
  own, so it silently shares its parent's wire identity (classes that
  assign ``self.code`` per instance, like ``AnalysisError``, are
  recognized and exempt);
* ``RD202`` — two classes declare the same code (the registry builder
  refuses to build; this rule reports the collision as a span);
* ``RD203`` — a string literal used as a code (``code=...``/
  ``error_code=...`` keyword, or compared against ``.code``/
  ``.error_code``) resolves to no registered class and no analyzer
  code — the typo'd-constant class of bug;
* ``RD204`` — a code claimed by a README error table is not registered
  (documentation promising codes the middleware never raises);
* ``RD205`` — a registered code appears nowhere in the README error
  tables (the table is the user-facing contract; it must be complete).
"""

from __future__ import annotations

import ast
import inspect
import re
import typing
from pathlib import Path

from repro.devlint.diagnostics import DevDiagnostic, Severity
from repro.devlint.engine import Project, ProjectRule, SourceFile

__all__ = ["registry_rules", "readme_table_codes"]

#: A dotted error code: lowercase layer, dot, lowercase condition.
_CODE_SHAPE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")
#: Analyzer and devlint code families, valid wherever error codes are.
_FAMILY_SHAPE = re.compile(r"^(AJO[1-3]\d\d|RD[1-4]\d\d)$")


def _class_span(
    project: Project, cls: type
) -> tuple[str, int]:
    """(repo-relative file, line) of a class definition, best effort."""
    try:
        source_file = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return cls.__module__.replace(".", "/") + ".py", 0
    if source_file is None:
        return cls.__module__.replace(".", "/") + ".py", 0
    try:
        rel = Path(source_file).resolve().relative_to(project.root).as_posix()
    except ValueError:
        rel = Path(source_file).name
    return rel, line


def _instance_coded_classes(project: Project) -> set[str]:
    """Names of classes that assign ``self.code`` somewhere in a method.

    Such classes (e.g. ``AnalysisError``) pick their wire code per
    instance, which is a deliberate pattern — the class-level
    declaration requirement does not apply.
    """
    found: set[str] = set()
    for f in project.files:
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, (ast.Assign, ast.AugAssign))
                ):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "code"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            found.add(node.name)
    return found


class ErrorClassDeclarationRule(ProjectRule):
    """RD201 + RD202: every class declares a code; no two share one."""

    code = "RD201"

    def check_project(
        self, project: Project
    ) -> typing.Iterator[DevDiagnostic]:
        from repro.errors import iter_error_classes

        instance_coded = _instance_coded_classes(project)
        by_code: dict[str, type] = {}
        for cls in iter_error_classes():
            own = cls.__dict__.get("code")
            file, line = _class_span(project, cls)
            if not isinstance(own, str):
                if cls.__name__ in instance_coded:
                    continue
                yield DevDiagnostic(
                    code="RD201", severity=Severity.ERROR,
                    message=(
                        f"{cls.__qualname__} declares no code of its own and "
                        "would share its parent's wire identity "
                        f"({cls.code!r}); declare a unique dotted code"
                    ),
                    file=file, line=line,
                )
                continue
            if not _CODE_SHAPE.match(own):
                yield DevDiagnostic(
                    code="RD201", severity=Severity.ERROR,
                    message=(
                        f"{cls.__qualname__} declares malformed code {own!r} "
                        "(expected lowercase dotted layer.condition)"
                    ),
                    file=file, line=line,
                )
                continue
            holder = by_code.get(own)
            if holder is not None and holder is not cls:
                yield DevDiagnostic(
                    code="RD202", severity=Severity.ERROR,
                    message=(
                        f"code {own!r} declared by both "
                        f"{holder.__qualname__} and {cls.__qualname__}; "
                        "codes must be unique"
                    ),
                    file=file, line=line,
                )
            by_code.setdefault(own, cls)


class CodeLiteralRule(ProjectRule):
    """RD203: every code literal at a use site resolves to the registry."""

    code = "RD203"

    _KEYWORDS = frozenset({"code", "error_code"})

    def _valid(self, literal: str, registered: frozenset[str]) -> bool:
        if literal == "" or literal in registered:
            return True
        return bool(_FAMILY_SHAPE.match(literal))

    def _check_file(
        self, f: SourceFile, registered: frozenset[str]
    ) -> typing.Iterator[DevDiagnostic]:
        sites: list[tuple[int, str]] = []
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg in self._KEYWORDS
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        sites.append((kw.value.lineno, kw.value.value))
            elif isinstance(node, ast.Compare):
                exprs = [node.left, *node.comparators]
                names = {
                    e.attr for e in exprs
                    if isinstance(e, ast.Attribute)
                } | {
                    e.id for e in exprs if isinstance(e, ast.Name)
                }
                if not (names & self._KEYWORDS):
                    continue
                for expr in exprs:
                    if (
                        isinstance(expr, ast.Constant)
                        and isinstance(expr.value, str)
                    ):
                        sites.append((expr.lineno, expr.value))
        for line, literal in sites:
            # Only literals shaped like codes are judged: `code=` keywords
            # also carry free-form identifiers elsewhere (HTTP-ish args).
            if not (_CODE_SHAPE.match(literal) or _FAMILY_SHAPE.match(literal)):
                continue
            if not self._valid(literal, registered):
                yield DevDiagnostic(
                    code="RD203", severity=Severity.ERROR,
                    message=(
                        f"code literal {literal!r} matches no registered "
                        "error class (repro.errors.ERROR_CODES) and no "
                        "analyzer code family"
                    ),
                    file=f.rel, line=line,
                )

    def check_project(
        self, project: Project
    ) -> typing.Iterator[DevDiagnostic]:
        from repro.errors import error_code_registry

        registered = frozenset(error_code_registry())
        for f in project.files:
            yield from self._check_file(f, registered)


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
            if _CODE_SHAPE.match(token):
                claimed.append((lineno, token))
    return claimed


class ReadmeCodeTableRule(ProjectRule):
    """RD204 + RD205: the README error tables match the registry."""

    code = "RD204"

    def check_project(
        self, project: Project
    ) -> typing.Iterator[DevDiagnostic]:
        from repro.errors import error_code_registry

        registered = dict(error_code_registry())
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
    return [
        ErrorClassDeclarationRule(), CodeLiteralRule(), ReadmeCodeTableRule(),
    ]
