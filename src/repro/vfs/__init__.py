"""Virtual filesystem: the UNICORE data spaces.

Paper section 4: "the data model used in UNICORE distinguishes between
data inside (Uspace) and outside (Xspace and data from the user's
workstation) of UNICORE.  All data needed in UNICORE for a job has to be
specified by the user and is imported into the Uspace.  Analogously data
created within UNICORE (in the Uspace) has to be exported to an external
file space."

- :mod:`repro.vfs.body` — file content as a value: the bytes plus the
  digest and chunk CRCs their holder has taken (who computes what, when);
- :mod:`repro.vfs.filesystem` — an in-memory filesystem with quotas;
- :mod:`repro.vfs.spaces` — Xspace (site file systems), Uspace (per-job
  UNICORE directory), and Workstation (the user's local files).
"""

from repro.vfs.body import FileBody
from repro.vfs.errors import (
    FileExistsVFSError,
    FileNotFoundVFSError,
    QuotaExceededError,
    VFSError,
)
from repro.vfs.filesystem import InMemoryFileSystem
from repro.vfs.spaces import Uspace, UspaceManager, Workstation, Xspace

__all__ = [
    "FileBody",
    "FileExistsVFSError",
    "FileNotFoundVFSError",
    "InMemoryFileSystem",
    "QuotaExceededError",
    "Uspace",
    "UspaceManager",
    "VFSError",
    "Workstation",
    "Xspace",
]
