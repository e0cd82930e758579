"""Every repo path the docs name exists.

A path in backticks in README.md, DESIGN.md or EXPERIMENTS.md is a token
that starts with a top-level directory of the repo or ends in a file
suffix.  It must name a file or directory of the repo.  A short one
(``njs/runindex.py``, ``quickstart.py``) resolves when it is the tail of
a path under ``src/repro``, ``tests``, ``benchmarks`` or ``examples``.
A line reference after it (``gateway.py:156``) is dropped.

A dotted name in backticks (``repro.net.wire``, ``repro.vfs.FileBody``)
with at least two dots must import: as a module, or as a module followed
by its attributes.  ``repro.error`` (one dot) is a README error code,
not a name.
"""

import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
TOP = ("src/", "tests/", "benchmarks/", "examples/", ".github/")
SUFFIXES = (".py", ".md", ".json", ".jsonl", ".toml", ".yml")
_TOKEN = re.compile(r"`([\w./-]+?)(?::\d+(?:[-–,]\d+)*)?`")


def _tails() -> set[str]:
    """Every path under the searched roots, and every tail of one."""
    tails = set()
    for root in ("src/repro", "tests", "benchmarks", "examples"):
        for path in (REPO / root).rglob("*"):
            parts = path.relative_to(REPO).parts
            tails.update("/".join(parts[i:]) for i in range(len(parts)))
    return tails


def _missing(text: str, tails: set[str]) -> list[str]:
    """The repo paths ``text`` names in backticks that do not exist."""
    return [
        path for path in _TOKEN.findall(text)
        if (path.startswith(TOP) or path.endswith(SUFFIXES))
        and not (REPO / path).exists() and path.rstrip("/") not in tails
    ]


def _resolves(name: str) -> bool:
    """``name`` is a module, or a module followed by its attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _unresolved(text: str) -> list[str]:
    """The dotted ``repro`` names ``text`` gives in backticks that do not
    import."""
    return [
        name for name in _TOKEN.findall(text)
        if name.startswith("repro.") and name.count(".") >= 2
        and not _resolves(name)
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_a_doc_names_exists(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    assert _missing(text, _tails()) == []
    assert _unresolved(text) == []


def test_a_path_that_is_gone_is_named():
    text = (
        "`njs/restored.py:66` and `njs/runindex.py`, `quickstart.py`, "
        "`tests/unit/`, `job_id/action_id`"
    )
    assert _missing(text, _tails()) == ["njs/restored.py"]


def test_a_dotted_name_that_does_not_import_is_named():
    text = (
        "`repro.net.wire`, `repro.vfs.FileBody`, `repro.error`, "
        "`repro.batch.qstat`, `repro.vfs.NoSuchBody`, "
        "`repro.errors.ERROR_CODES`"
    )
    assert _unresolved(text) == ["repro.batch.qstat", "repro.vfs.NoSuchBody"]
