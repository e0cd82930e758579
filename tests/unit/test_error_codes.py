"""The canonical error-code registry (repro.errors.ERROR_CODES).

The registry is the single source of truth, so this suite pins its
contract: completeness over every layer, the refusal of a class with no
code of its own, a malformed code or a duplicate, the lazy re-export
shim, and the README error tables matching it in both directions.
"""

import gc
import re
from pathlib import Path

import pytest

import repro.errors as errors_module
from repro.errors import (
    DuplicateErrorCode,
    InvalidErrorCode,
    ReproError,
    error_code_registry,
    iter_error_classes,
)


def test_registry_spans_every_layer():
    registry = error_code_registry()
    # One spot-check per layer module that contributes codes.
    for code in (
        "repro.error", "api.wait_timeout", "net.error", "server.consign",
        "batch.error", "vfs.quota", "resources.page",
        "security.authentication", "ajo.dependency_cycle",
        "protocol.retry_exhausted", "faults.circuit_open",
        "broker.no_capacity", "storage.snapshot",
    ):
        assert code in registry, code
    assert len(registry) >= 40


def test_every_code_is_dotted_lower_snake():
    for code, cls in error_code_registry().items():
        assert "." in code, f"{cls.__qualname__}: {code!r} is not dotted"
        assert code == code.lower(), f"{cls.__qualname__}: {code!r}"
        assert " " not in code


def test_subclass_without_own_code_shares_parent_identity():
    # FileNotFoundVFSError-style classes that do declare their own code
    # register; a class that only inherits must not shadow its parent.
    registry = error_code_registry()
    for code, cls in registry.items():
        assert cls.__dict__.get("code") == code


def test_iter_error_classes_is_deterministic_and_repro_only():
    first = list(iter_error_classes())
    second = list(iter_error_classes())
    assert first == second
    assert all(cls.__module__.startswith("repro.") for cls in first)
    assert all(issubclass(cls, ReproError) for cls in first)


def _refused(error, match, *namespaces):
    """Build the registry with fake ``repro.*`` classes in the hierarchy.

    The fakes masquerade as repro-internal classes so the module filter
    admits them, and are garbage-collected afterwards so later registry
    builds in this process see the clean hierarchy.
    """
    fakes = [
        type(f"Fake{i}", (ReproError,), dict(ns, __module__="repro._test_fake"))
        for i, ns in enumerate(namespaces)
    ]
    try:
        with pytest.raises(error, match=match):
            error_code_registry()
    finally:
        del fakes
        gc.collect()
    error_code_registry()  # builds again once the fakes are gone


def test_duplicate_code_refuses_to_build_registry():
    # Two classes claiming one wire code must abort the build loudly —
    # silently picking a winner would make client-side re-raise ambiguous.
    ns = {"code": "zz.collision"}
    _refused(DuplicateErrorCode, "zz.collision", ns, ns)
    assert "zz.collision" not in error_code_registry()
    assert issubclass(DuplicateErrorCode, InvalidErrorCode)


def test_class_without_its_own_code_refuses_to_build_registry():
    # It would travel as its parent and be re-raised as its parent.
    _refused(InvalidErrorCode, "Fake0 declares no code of its own", {})


@pytest.mark.parametrize("code", ["NOT_DOTTED", "undotted", "Net.error", "a b.c"])
def test_malformed_code_refuses_to_build_registry(code):
    _refused(InvalidErrorCode, "malformed code", {"code": code})


def test_analysis_error_declares_a_class_code_and_keeps_its_instance_one():
    from repro.analysis import AnalysisError, Diagnostic, Severity
    from repro.analysis.diagnostics import AnalysisReport

    assert error_code_registry()["ajo.analysis"] is AnalysisError
    report = AnalysisReport(job_id="j", job_name="n", diagnostics=(Diagnostic(
        code="AJO201", severity=Severity.ERROR, message="m", path=("j", "a"),
    ),))
    assert AnalysisError(report).code == "AJO201"


def test_error_codes_attribute_is_lazy_and_cached():
    errors_module.__dict__.pop("ERROR_CODES", None)
    registry = errors_module.ERROR_CODES
    assert registry is errors_module.__dict__["ERROR_CODES"]
    assert registry["net.error"] is errors_module.NetworkError
    with pytest.raises(TypeError):
        registry["net.error"] = None  # read-only mapping


def test_lazy_reexport_resolves_layer_names():
    from repro.batch.errors import UnknownQueueError

    assert errors_module.UnknownQueueError is UnknownQueueError
    with pytest.raises(AttributeError, match="NoSuchError"):
        errors_module.NoSuchError
    assert "ConsignError" in dir(errors_module)


README = Path(__file__).resolve().parents[2] / "README.md"


def readme_table_codes(readme: str) -> list[tuple[int, str]]:
    """Backticked dotted codes claimed by README tables with a Code column.

    Returns ``(1-based line, code)`` pairs.  Only tables whose header
    row names a ``code`` column participate, so metric-name tables and
    module references never count.
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
        if not in_code_table and any(c.lower() == "code" for c in cells):
            in_code_table = True
            continue
        if not in_code_table:
            continue
        for token in re.findall(r"`([^`]+)`", stripped):
            if errors_module.CODE_SHAPE.match(token):
                claimed.append((lineno, token))
    return claimed


def test_readme_table_codes_only_reads_code_tables():
    readme = (
        "| code | class |\n|---|---|\n| `net.error` | `NetworkError` |\n"
        "\nprose mentioning `другое.имя` and `span.name`\n"
        "| metric | value |\n|---|---|\n| `gateway.requests` | 1 |\n"
    )
    assert [c for _, c in readme_table_codes(readme)] == ["net.error"]


def test_readme_error_tables_match_the_registry():
    """The README tables are the user-facing contract: each claims only
    codes some class declares, and together they list every code."""
    claimed = readme_table_codes(README.read_text(encoding="utf-8"))
    registered = error_code_registry()
    undeclared = [(line, code) for line, code in claimed if code not in registered]
    assert undeclared == [], "README claims codes no class declares"
    missing = sorted(set(registered) - {code for _, code in claimed})
    assert missing == [], "registered codes missing from the README tables"
