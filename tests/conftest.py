"""Fixtures shared by the whole suite."""

import ast
from pathlib import Path

import pytest
from hypothesis import settings


@pytest.fixture(scope="session")
def src_files() -> list[tuple[str, str, ast.Module]]:
    """Every module of ``src/repro``, parsed once, as ``(rel, source, tree)``
    with ``rel`` the repo-relative path (``src/repro/net/wire.py``)."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "repro").rglob("*.py"))
    sources = [(p.relative_to(root).as_posix(), p.read_text(encoding="utf-8")) for p in paths]
    return [(rel, source, ast.parse(source, filename=rel)) for rel, source in sources]


#: CI's "Crash points" step (``--hypothesis-profile crash-points``) draws
#: 400 crash points in ``tests/property/test_crash_timing_properties.py``.
settings.register_profile("crash-points", max_examples=400)
