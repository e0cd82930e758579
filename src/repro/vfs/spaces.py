"""The three UNICORE data spaces: Workstation, Xspace, Uspace.

Section 4 of the paper defines: Xspace = "the file systems available at
the Vsites of a Usite"; Uspace = "all data available to a UNICORE job";
plus the user's workstation as the third location.  Imports/exports
between Xspace and Uspace "are always local operations performed at a
Vsite ... implemented as a copy process" (section 5.6).
"""

from __future__ import annotations

import math

from repro.vfs.body import FileBody
from repro.vfs.errors import VFSError
from repro.vfs.filesystem import InMemoryFileSystem

__all__ = ["Workstation", "Xspace", "Uspace", "UspaceManager"]


class Workstation:
    """The user's local machine: files that ride along inside the AJO."""

    def __init__(self, owner_dn: str, quota_bytes: float = math.inf) -> None:
        self.owner_dn = owner_dn
        self.fs = InMemoryFileSystem(name=f"workstation:{owner_dn}", quota_bytes=quota_bytes)

    def stage_for_ajo(self, paths: list[str]) -> dict[str, FileBody]:
        """Collect the named local files for embedding into an AJO.

        Section 5.6: "Files from the user's workstation needed in a job
        are put into the AJO."
        """
        return {path: self.fs.body(path) for path in paths}


class Xspace:
    """The site file systems of one Usite (outside UNICORE control)."""

    def __init__(self, usite: str, quota_bytes: float = math.inf) -> None:
        self.usite = usite
        self.fs = InMemoryFileSystem(name=f"xspace:{usite}", quota_bytes=quota_bytes)


class Uspace:
    """The UNICORE job directory for one job at one Vsite.

    Section 5.5: the NJS must "create a UNICORE job directory to contain
    the data for and created during the job run".  Paths inside a Uspace
    are relative to the job directory.
    """

    def __init__(self, job_id: str, vsite: str, fs: InMemoryFileSystem, root: str) -> None:
        self.job_id = job_id
        self.vsite = vsite
        self._fs = fs
        self.root = root

    def _abs(self, path: str) -> str:
        if path.startswith("/"):
            path = path[1:]
        return f"{self.root}/{path}"

    def write(self, path: str, content: FileBody | bytes) -> None:
        self._fs.write(self._abs(path), content)

    def read(self, path: str) -> bytes:
        return self._fs.read(self._abs(path))

    def body(self, path: str) -> FileBody:
        return self._fs.body(self._abs(path))

    def exists(self, path: str) -> bool:
        return self._fs.is_file(self._abs(path))

    def size(self, path: str) -> int:
        return self._fs.size(self._abs(path))

    def listdir(self, path: str = "/") -> list[str]:
        return self._fs.listdir(self._abs(path) if path != "/" else self.root)

    def files(self) -> list[str]:
        """All file paths in this Uspace, relative to the job directory."""
        prefix = self.root + "/"
        return [p[len(prefix):] for p in self._fs.walk_files(self.root)]

    def used_bytes(self) -> int:
        return sum(self._fs.size(p) for p in self._fs.walk_files(self.root))


class UspaceManager:
    """Creates and destroys Uspaces on a Vsite's UNICORE spool filesystem."""

    def __init__(self, vsite: str, quota_bytes: float = math.inf) -> None:
        self.vsite = vsite
        self.fs = InMemoryFileSystem(name=f"uspace:{vsite}", quota_bytes=quota_bytes)
        self._active: dict[str, Uspace] = {}

    def create(self, job_id: str) -> Uspace:
        """Create the job directory for ``job_id``."""
        if job_id in self._active:
            raise VFSError(f"uspace for job {job_id} already exists on {self.vsite}")
        root = f"/jobs/{job_id}"
        self.fs.mkdir(root)
        uspace = Uspace(job_id=job_id, vsite=self.vsite, fs=self.fs, root=root)
        self._active[job_id] = uspace
        return uspace

    def get(self, job_id: str) -> Uspace:
        try:
            return self._active[job_id]
        except KeyError:
            raise VFSError(f"no uspace for job {job_id} on {self.vsite}") from None

    def destroy(self, job_id: str) -> None:
        """Remove the job directory and all its contents."""
        uspace = self.get(job_id)
        self.fs.delete(uspace.root)
        del self._active[job_id]

    @property
    def active_jobs(self) -> list[str]:
        return sorted(self._active)
