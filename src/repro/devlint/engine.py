"""The devlint engine: file discovery, rule driving, suppression.

Two rule shapes exist, matching the two shapes of invariants:

* :class:`FileRule` — runs per source file against its AST, for local
  properties (a wall-clock call, an iteration over a ``set``);
* :class:`ProjectRule` — runs once over the whole :class:`Project`,
  for cross-file registries (error codes vs raise sites, metric names
  vs the committed registry).

Suppression is an inline pragma — ``# devlint: ignore[RD101]`` on the
offending line (or alone on the line above) silences named codes with
the reason visible in the diff.  Nothing else hides a finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
import typing
from dataclasses import dataclass, field
from pathlib import Path

from repro.devlint.diagnostics import DevDiagnostic, DevReport, Severity

__all__ = [
    "FileRule",
    "Project",
    "ProjectRule",
    "SourceFile",
    "default_rules",
    "discover_project",
    "run_devlint",
]

#: Matches ``# devlint: ignore`` and ``# devlint: ignore[RD101, RD304]``.
_PRAGMA = re.compile(
    r"#\s*devlint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


@dataclass
class SourceFile:
    """One parsed source file plus its inline suppressions."""

    path: Path
    #: Repo-relative POSIX path (``src/repro/net/wire.py``).
    rel: str
    source: str
    tree: ast.Module
    #: line -> codes silenced there (``None`` = every code).
    ignores: dict[int, set[str] | None] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.ignores.get(line, ())
        return codes is None or code in typing.cast("set[str]", codes)


def _parse_pragmas(source: str) -> dict[int, set[str] | None]:
    """Inline suppressions by line, via the token stream (not regex-on-
    strings, so a pragma inside a string literal never counts)."""
    ignores: dict[int, set[str] | None] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        return ignores
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(tok.string)
        if match is None:
            continue
        raw = match.group("codes")
        codes = (
            None if raw is None
            else {c.strip() for c in raw.split(",") if c.strip()}
        )
        line = tok.start[0]
        # A comment alone on its line shields the *next* line too, so
        # pragmas survive formatters that refuse long lines.
        targets = [line]
        if tok.line.strip().startswith("#"):
            targets.append(line + 1)
        for target in targets:
            existing = ignores.get(target, set())
            if codes is None or existing is None:
                ignores[target] = None
            else:
                ignores[target] = typing.cast("set[str]", existing) | codes
    return ignores


@dataclass
class Project:
    """Everything a rule may look at: the file set plus repo documents."""

    root: Path
    files: list[SourceFile]
    readme: str = ""

    def file(self, rel: str) -> SourceFile | None:
        for f in self.files:
            if f.rel == rel:
                return f
        return None


class FileRule:
    """A per-file AST rule.  Subclasses set the code and implement
    :meth:`check`, yielding ``(line, message)`` pairs."""

    code: str = "RD000"
    severity: Severity = Severity.ERROR
    #: Repo-relative path prefixes where this rule never fires (paths
    #: whose non-determinism or divergence is the design, e.g. the
    #: wall-clock asyncio transport).
    allowlist: tuple[str, ...] = ()

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        raise NotImplementedError

    def run(self, f: SourceFile) -> typing.Iterator[DevDiagnostic]:
        if any(f.rel.startswith(prefix) for prefix in self.allowlist):
            return
        for line, message in self.check(f):
            yield DevDiagnostic(
                code=self.code, severity=self.severity,
                message=message, file=f.rel, line=line,
            )


class ProjectRule:
    """A whole-project rule.  Subclasses implement :meth:`check_project`,
    yielding finished diagnostics (they know their own spans)."""

    code: str = "RD000"

    def check_project(self, project: Project) -> typing.Iterator[DevDiagnostic]:
        raise NotImplementedError


def find_repo_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` (default: this package) to the repo root.

    The root is the directory holding ``src/repro`` — devlint analyzes
    the codebase itself, so it must run from a source checkout.
    """
    here = (start or Path(__file__)).resolve()
    for candidate in [here, *here.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the repository root (no src/repro above "
        f"{here}); devlint needs a source checkout"
    )


def discover_project(root: Path | None = None) -> Project:
    """Parse every linted source file under ``root``.

    The linted set is ``src/repro`` — the shipped package whose
    invariants the rules guard.  Tests and benchmarks are free to use
    wall clocks and ad-hoc names (they *measure* the wall clock).
    """
    base = find_repo_root(root) if root is None else Path(root).resolve()
    package = base / "src" / "repro"
    if not package.is_dir():
        raise FileNotFoundError(f"{package} is not a directory")
    files: list[SourceFile] = []
    for path in sorted(package.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        source = path.read_text(encoding="utf-8")
        files.append(SourceFile(
            path=path,
            rel=path.relative_to(base).as_posix(),
            source=source,
            tree=ast.parse(source, filename=str(path)),
            ignores=_parse_pragmas(source),
        ))
    readme = base / "README.md"
    return Project(
        root=base,
        files=files,
        readme=readme.read_text(encoding="utf-8") if readme.exists() else "",
    )


def default_rules() -> "list[FileRule | ProjectRule]":
    """All four rule packs, in code order."""
    from repro.devlint.rules_determinism import determinism_rules
    from repro.devlint.rules_observability import observability_rules
    from repro.devlint.rules_protocol import protocol_rules
    from repro.devlint.rules_registry import registry_rules

    return [
        *determinism_rules(),
        *registry_rules(),
        *observability_rules(),
        *protocol_rules(),
    ]


def run_devlint(
    root: Path | None = None,
    rules: "typing.Sequence[FileRule | ProjectRule] | None" = None,
    project: Project | None = None,
) -> DevReport:
    """Lint the codebase; returns the ordered, suppression-filtered report."""
    if project is None:
        project = discover_project(root)
    active = list(default_rules() if rules is None else rules)

    findings: list[DevDiagnostic] = []
    for rule in active:
        if isinstance(rule, FileRule):
            for f in project.files:
                findings.extend(rule.run(f))
        else:
            findings.extend(rule.check_project(project))

    kept: list[DevDiagnostic] = []
    suppressed = 0
    by_rel = {f.rel: f for f in project.files}
    for diag in findings:
        f = by_rel.get(diag.file)
        if f is not None and diag.line and f.suppressed(diag.line, diag.code):
            suppressed += 1
            continue
        kept.append(diag)

    kept.sort(key=lambda d: (d.file, d.line, d.code, d.message))
    return DevReport(
        diagnostics=tuple(kept),
        suppressed=suppressed,
        files_scanned=len(project.files),
    )
