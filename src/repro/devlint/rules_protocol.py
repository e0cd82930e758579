"""RD4xx — ownership: every name and every piece of state has one home.

(``RD401``–``RD403`` are retired and not reused: the gateway dispatches
through one table ``RequestKind -> handler``, which a unit test compares
with ``RequestKind.ALL``, so there is no if-chain to keep in step.)

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

from repro.devlint.engine import FileRule, SourceFile

__all__ = ["protocol_rules"]


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


def protocol_rules() -> list[FileRule]:
    return [ModuleGetattrRule(), PrivateReachRule(), ContentPassRule()]
