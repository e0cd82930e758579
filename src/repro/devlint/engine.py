"""The devlint engine: file discovery, rule driving, suppression.

Every rule is a :class:`FileRule`: it looks at one source file's AST,
for local properties (a wall-clock call, an iteration over a ``set``).
What only the whole tree can show is checked elsewhere: metric and span
names by the instruments themselves (:mod:`repro.observability.registry`),
error codes by ``repro.errors.error_code_registry()``, and the README
error table and dead registry entries by tier-1 tests.

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

from repro.devlint.diagnostics import DevDiagnostic, DevReport

__all__ = [
    "FileRule",
    "Project",
    "SourceFile",
    "default_rules",
    "discover_project",
    "run_devlint",
]

#: Matches ``# devlint: ignore`` and ``# devlint: ignore[RD101, RD406]``.
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
    """The file set the rules run over."""

    files: list[SourceFile]


class FileRule:
    """A per-file AST rule.  Subclasses set the code and implement
    :meth:`check`, yielding ``(line, message)`` pairs."""

    code: str = "RD000"
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
                code=self.code, message=message, file=f.rel, line=line,
            )


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
    return Project(files=files)


def default_rules() -> list[FileRule]:
    """Both rule packs, in code order."""
    from repro.devlint.rules_determinism import determinism_rules
    from repro.devlint.rules_protocol import protocol_rules

    return [*determinism_rules(), *protocol_rules()]


def run_devlint(
    root: Path | None = None,
    rules: typing.Sequence[FileRule] | None = None,
    project: Project | None = None,
) -> DevReport:
    """Lint the codebase; returns the ordered, suppression-filtered report."""
    if project is None:
        project = discover_project(root)
    active = default_rules() if rules is None else rules

    kept: list[DevDiagnostic] = []
    suppressed = 0
    for f in project.files:
        for rule in active:
            for diag in rule.run(f):
                if f.suppressed(diag.line, diag.code):
                    suppressed += 1
                else:
                    kept.append(diag)

    kept.sort(key=lambda d: (d.file, d.line, d.code, d.message))
    return DevReport(
        diagnostics=tuple(kept),
        suppressed=suppressed,
        files_scanned=len(project.files),
    )
