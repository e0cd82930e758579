"""An in-memory filesystem with quota accounting.

Paths are ``/``-separated, always normalized to an absolute form without
``.`` or ``..`` components.  Directories are implicit (created by writing
files under them) but can also be created empty.  The quota covers file
content bytes only.

Content is held as :class:`~repro.vfs.body.FileBody` values, by
reference: the body written is the body read back, with whatever digest
and chunk CRCs its holder has already taken.  Each directory keeps the
names of its children, so a listing costs what it lists, however much
else the filesystem holds.
"""

from __future__ import annotations

import math
import typing

from repro.vfs.body import FileBody
from repro.vfs.errors import (
    FileExistsVFSError,
    FileNotFoundVFSError,
    QuotaExceededError,
    VFSError,
)

__all__ = ["InMemoryFileSystem", "normalize"]


def normalize(path: str) -> str:
    """Normalize to ``/a/b/c`` form; rejects escapes above the root."""
    if not path:
        raise VFSError("empty path")
    parts: list[str] = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            if not parts:
                raise VFSError(f"path {path!r} escapes the filesystem root")
            parts.pop()
        else:
            parts.append(comp)
    return "/" + "/".join(parts)


class InMemoryFileSystem:
    """Files as ``path -> body`` with explicit empty directories.

    Parameters
    ----------
    name:
        Label used in error messages (e.g. ``"FZJ:/xspace"``).
    quota_bytes:
        Total content bytes allowed (``inf`` = unlimited).
    """

    def __init__(self, name: str = "fs", quota_bytes: float = math.inf) -> None:
        if quota_bytes <= 0:
            raise VFSError("quota must be positive")
        self.name = name
        self.quota_bytes = quota_bytes
        self._files: dict[str, FileBody] = {}
        #: Directory -> the names of its immediate children.
        self._dirs: dict[str, set[str]] = {"/": set()}
        self._used = 0

    # -- introspection ------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> float:
        return self.quota_bytes - self._used

    def exists(self, path: str) -> bool:
        p = normalize(path)
        return p in self._files or p in self._dirs

    def is_file(self, path: str) -> bool:
        return normalize(path) in self._files

    def is_dir(self, path: str) -> bool:
        return normalize(path) in self._dirs

    def size(self, path: str) -> int:
        return len(self.body(path))

    def file_count(self) -> int:
        return len(self._files)

    # -- directory ops ----------------------------------------------------------
    def mkdir(self, path: str) -> None:
        """Create a directory (and ancestors); idempotent."""
        p = normalize(path)
        if p in self._files:
            raise FileExistsVFSError(f"{self.name}: {p} is a file")
        self._add_dirs(p)

    def _add_dirs(self, p: str) -> None:
        """Make ``p`` and every ancestor a directory, each in its parent."""
        parent = "/"
        for name in p.split("/")[1:]:
            child = f"{parent.rstrip('/')}/{name}"
            if child in self._files:
                raise FileExistsVFSError(
                    f"{self.name}: {child} is a file, cannot be a directory"
                )
            if name and child not in self._dirs:
                self._dirs[child] = set()
                self._dirs[parent].add(name)
            parent = child

    def listdir(self, path: str = "/") -> list[str]:
        """Immediate children (names, not paths) of a directory, sorted."""
        p = normalize(path)
        try:
            return sorted(self._dirs[p])
        except KeyError:
            raise FileNotFoundVFSError(f"{self.name}: no directory {p}") from None

    def _subtree(self, p: str) -> tuple[list[str], list[str]]:
        """Every ``(file, directory)`` path under directory ``p``, itself
        included; visits nothing outside it."""
        files: list[str] = []
        dirs = [p]
        for d in dirs:  # grows while it is walked
            base = d.rstrip("/")
            for name in self._dirs[d]:
                child = f"{base}/{name}"
                (dirs if child in self._dirs else files).append(child)
        return files, dirs

    def walk_files(self, path: str = "/") -> typing.Iterator[str]:
        """All file paths under ``path`` (sorted)."""
        p = normalize(path)
        if p in self._dirs:
            yield from sorted(self._subtree(p)[0])
        elif p in self._files:
            yield p

    # -- file ops -------------------------------------------------------------------
    def write(
        self, path: str, content: FileBody | bytes | bytearray,
        overwrite: bool = True,
    ) -> None:
        """Write ``content``; quota-checked net of any replaced file.

        A :class:`FileBody` is kept as it is, memo intact; bare bytes are
        wrapped in a fresh one.
        """
        if not isinstance(content, (FileBody, bytes, bytearray)):
            raise VFSError(f"content must be bytes, got {type(content).__name__}")
        p = normalize(path)
        if p in self._dirs:
            raise FileExistsVFSError(f"{self.name}: {p} is a directory")
        replaced = self._files.get(p)
        if replaced is not None and not overwrite:
            raise FileExistsVFSError(f"{self.name}: {p} exists")
        delta = len(content) - (0 if replaced is None else len(replaced))
        if self._used + delta > self.quota_bytes:
            raise QuotaExceededError(
                f"{self.name}: writing {len(content)} bytes to {p} exceeds "
                f"quota ({self._used + delta} > {self.quota_bytes})"
            )
        parent, _, name = p.rpartition("/")
        parent = parent or "/"
        if parent not in self._dirs:
            self._add_dirs(parent)
        self._dirs[parent].add(name)
        self._files[p] = FileBody.of(content)
        self._used += delta

    def body(self, path: str) -> FileBody:
        """The content of a file, with the checks its holder has taken."""
        p = normalize(path)
        try:
            return self._files[p]
        except KeyError:
            raise FileNotFoundVFSError(f"{self.name}: no file {p}") from None

    def read(self, path: str) -> bytes:
        return self.body(path).data

    def append(self, path: str, content: bytes) -> None:
        """Append to a file, creating it if absent (new content: a new
        body, nothing of the old one's memo)."""
        existing = self._files.get(normalize(path))
        self.write(
            path, (b"" if existing is None else existing.data) + content
        )

    def delete(self, path: str) -> None:
        """Delete a file, or a directory recursively."""
        p = normalize(path)
        if p in self._files:
            files, dirs = [p], []
        elif p == "/":
            raise VFSError(f"{self.name}: refusing to delete the root")
        elif p in self._dirs:
            files, dirs = self._subtree(p)
        else:
            raise FileNotFoundVFSError(f"{self.name}: no such path {p}")
        for fpath in files:
            self._used -= len(self._files.pop(fpath))
        for dpath in dirs:
            del self._dirs[dpath]
        parent, _, name = p.rpartition("/")
        self._dirs[parent or "/"].discard(name)

    def __repr__(self) -> str:
        return (
            f"<InMemoryFileSystem {self.name} files={len(self._files)} "
            f"used={self._used}B>"
        )
