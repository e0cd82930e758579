"""RD4xx — protocol and ownership consistency.

UNICORE's "seamless" model depends on every tier speaking the same
request vocabulary: a verb the client can send but no server tier
dispatches fails at runtime, in production, as an ``unhandled request
kind`` error.  These rules pin the vocabulary statically:

* ``RD401`` — a ``RequestKind`` verb has no dispatch handler in the
  gateway (``request.kind == RequestKind.X`` comparison);
* ``RD402`` — a verb has more than one dispatch handler (ambiguous —
  only the first branch ever runs);
* ``RD403`` — the gateway dispatches on a ``RequestKind`` attribute the
  protocol module does not define (a stale handler after a rename);
* ``RD404`` — a module-level ``__getattr__`` outside the two modules
  that need one (:attr:`ModuleGetattrRule.ALLOWED` gives each its
  reason): a name that resolves at run time is how a moved module kept
  answering at its old address, and nothing may do that again;
* ``RD405`` — under ``src/repro/server/`` a ``_private`` attribute is
  touched through anything but ``self`` / ``cls`` outside the module
  that defines it, or any file assigns to ``.njs._…``: each piece of
  server state has one owner and changes through its methods;
* ``RD406`` — ``zlib.crc32`` / ``hashlib.sha256`` outside the modules
  that own a pass over file content (:attr:`ContentPassRule.allowlist`):
  a site reads a file body once per check, and a third reader of the
  bytes cannot come back unnoticed.
"""

from __future__ import annotations

import ast
import typing

from repro.devlint.diagnostics import DevDiagnostic, Severity
from repro.devlint.engine import FileRule, Project, ProjectRule, SourceFile

__all__ = ["protocol_rules", "request_verbs", "dispatch_sites"]

_MESSAGES_FILE = "src/repro/protocol/messages.py"
_GATEWAY_FILE = "src/repro/server/gateway.py"


def request_verbs(project: Project) -> dict[str, int]:
    """``RequestKind`` verb attribute -> definition line, from the AST."""
    f = project.file(_MESSAGES_FILE)
    if f is None:
        return {}
    verbs: dict[str, int] = {}
    for node in ast.walk(f.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "RequestKind"):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                verbs[stmt.targets[0].id] = stmt.lineno
    return verbs


def dispatch_sites(project: Project) -> list[tuple[str, int]]:
    """``(verb attribute, line)`` for every gateway dispatch comparison.

    A ``request.kind == RequestKind.X`` comparison that is *not* a
    dispatch site (e.g. byte accounting on the firewall hop) opts out
    with an inline ``# devlint: ignore[RD402]`` pragma on its line.
    """
    f = project.file(_GATEWAY_FILE)
    if f is None:
        return []
    sites: list[tuple[str, int]] = []
    for node in ast.walk(f.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, ast.Eq) for op in node.ops):
            continue
        exprs = [node.left, *node.comparators]
        kinds = [
            e for e in exprs
            if isinstance(e, ast.Attribute) and e.attr == "kind"
        ]
        refs = [
            e for e in exprs
            if isinstance(e, ast.Attribute)
            and isinstance(e.value, ast.Name)
            and e.value.id == "RequestKind"
        ]
        if kinds and refs and not f.suppressed(node.lineno, "RD402"):
            sites.append((refs[0].attr, node.lineno))
    return sites


class VerbDispatchRule(ProjectRule):
    """RD401/RD402/RD403: verbs and gateway handlers match one-to-one."""

    code = "RD401"

    def check_project(
        self, project: Project
    ) -> typing.Iterator[DevDiagnostic]:
        verbs = request_verbs(project)
        if not verbs:
            return
        sites = dispatch_sites(project)
        handled: dict[str, list[int]] = {}
        for attr, line in sites:
            handled.setdefault(attr, []).append(line)
        for attr, line in sorted(verbs.items()):
            if attr == "ALL":
                continue
            lines = handled.get(attr, [])
            if not lines:
                yield DevDiagnostic(
                    code="RD401", severity=Severity.ERROR,
                    message=(
                        f"request verb RequestKind.{attr} has no dispatch "
                        "handler in the gateway — clients can send it, no "
                        "tier answers it"
                    ),
                    file=_MESSAGES_FILE, line=line,
                )
            elif len(lines) > 1:
                yield DevDiagnostic(
                    code="RD402", severity=Severity.ERROR,
                    message=(
                        f"request verb RequestKind.{attr} is dispatched "
                        f"{len(lines)} times in the gateway (lines "
                        f"{', '.join(map(str, lines))}); only the first "
                        "branch ever runs"
                    ),
                    file=_GATEWAY_FILE, line=lines[1],
                )
        for attr, lines in sorted(handled.items()):
            if attr not in verbs:
                yield DevDiagnostic(
                    code="RD403", severity=Severity.ERROR,
                    message=(
                        f"gateway dispatches on RequestKind.{attr}, which "
                        "protocol/messages.py does not define"
                    ),
                    file=_GATEWAY_FILE, line=lines[0],
                )


class ModuleGetattrRule(FileRule):
    """RD404: attribute lookup on a module finds what the module defines."""

    code = "RD404"

    #: The modules that keep a PEP 562 hook, and why each needs one.
    ALLOWED = {
        "src/repro/__init__.py":
            "lazy facade: `import repro` must not import half the stack",
        "src/repro/errors.py":
            "import-cycle breaker: every layer's errors module imports it",
    }

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        if f.rel in self.ALLOWED:
            return
        for node in f.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                yield node.lineno, (
                    "module-level __getattr__: names that resolve at run "
                    "time hide what a module exports (and where a moved "
                    "name went); define or import the name instead"
                )


class PrivateReachRule(FileRule):
    """RD405: server-tier state has one owner."""

    code = "RD405"

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        in_server = f.rel.startswith("src/repro/server/")
        own = _private_names_defined(f.tree)
        for node in ast.walk(f.tree):
            attr = node
            while isinstance(attr, ast.Subscript):
                attr = attr.value  # storing into a private collection writes it
            if not (
                isinstance(attr, ast.Attribute)
                and attr.attr.startswith("_")
                and not attr.attr.endswith("__")
            ):
                continue
            holder = attr.value
            if isinstance(holder, ast.Name) and holder.id in ("self", "cls"):
                continue
            through = getattr(holder, "attr", getattr(holder, "id", ""))
            if through == "njs" and not isinstance(node.ctx, ast.Load):
                yield node.lineno, (
                    f"write to .njs.{attr.attr}: the NJS's state changes "
                    "only through its public methods"
                )
            elif in_server and node is attr and attr.attr not in own:
                yield node.lineno, (
                    f"{ast.unparse(attr)}: a private attribute is touched "
                    "through self/cls or in the module that defines it; "
                    "ask its owner through a public method"
                )


class ContentPassRule(FileRule):
    """RD406: one owner per pass over file content."""

    code = "RD406"
    #: The frame codec (a CRC per chunk sent or received), the body that
    #: keeps both checks beside the bytes, and two users of the functions
    #: on what is not file content: key material and RNG stream names.
    #: Anything else states its reason in a pragma on the line.
    allowlist = (
        "src/repro/net/stream.py",
        "src/repro/vfs/body.py",
        "src/repro/security/",
        "src/repro/simkernel/rng.py",
    )

    _READERS = ("zlib.crc32", "hashlib.sha256")

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        for node in ast.walk(f.tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            for name in names:
                if name in self._READERS:
                    yield node.lineno, (
                        f"{name} outside the modules that own a pass over "
                        "file content; take FileBody.digest / .chunk_crcs "
                        "(computed once, kept with the bytes) instead"
                    )


def _private_names_defined(tree: ast.Module) -> set[str]:
    """Private names a module defines: functions, classes, plain names it
    binds, and attributes it sets through self/cls."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            names.add(node.attr)
    return names


def protocol_rules() -> "list[ProjectRule | FileRule]":
    return [
        VerbDispatchRule(), ModuleGetattrRule(), PrivateReachRule(),
        ContentPassRule(),
    ]
