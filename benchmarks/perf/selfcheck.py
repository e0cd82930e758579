"""The benchmark's own lint: it may lean only on what the program promises.

Reads the sources in this directory and reports

* a ``repro`` import of a name outside the exporting module's ``__all__``;
* a ``._private`` attribute access on anything but ``self`` / ``cls``;
* an import from the legacy ``benchmarks`` package (``benchmarks._util``);
* a name ROADMAP item 3 is about to delete (compatibility shims, the
  legacy transfer message, the journal's compat counter);
* ``BENCHMARK.json`` disagreeing with the tables in ``metrics.py``.

So the supervisor split and the shim removal cannot break the benchmark,
and the manifest cannot drift from what ``run.py`` prints.  ``run.py``
calls :func:`problems` before measuring; ``pytest benchmarks/perf`` and
``python3 benchmarks/perf/selfcheck.py`` run it alone.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Names ROADMAP item 3 deletes.
DOOMED = (
    "repro.core",
    "repro.ext.broker",
    "repro.server.njs.journal",
    "TransferFile",
    "records_written",
)


def _sources() -> list[str]:
    return sorted(
        os.path.join(HERE, name) for name in os.listdir(HERE)
        if name.endswith(".py")
    )


def _check_tree(path: str, tree: ast.AST) -> list[str]:
    found = []
    where = os.path.basename(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("repro", "benchmarks"):
                    found.append(
                        f"{where}:{node.lineno}: import {alias.name} — import "
                        "public names with 'from repro.<package> import ...'"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            top = module.split(".")[0]
            if top == "benchmarks":
                found.append(f"{where}:{node.lineno}: imports from {module}")
            elif top == "repro":
                try:
                    public = importlib.import_module(module).__all__
                except (ImportError, AttributeError) as err:
                    found.append(f"{where}:{node.lineno}: {module}: {err}")
                    continue
                for alias in node.names:
                    if alias.name not in public:
                        found.append(
                            f"{where}:{node.lineno}: {alias.name} is not in "
                            f"{module}.__all__"
                        )
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            owner = node.value
            own = isinstance(owner, ast.Name) and owner.id in ("self", "cls")
            if private and not own:
                found.append(
                    f"{where}:{node.lineno}: private attribute .{node.attr}"
                )
    return found


def _check_manifest() -> list[str]:
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    import metrics
    import workloads

    with open(path) as fh:
        committed = json.load(fh)
    declared = metrics.manifest(workloads.WORKLOADS.values())
    return [
        f"BENCHMARK.json: {key!r} differs from metrics.py/workloads.py "
        "(regenerate with run.py --manifest)"
        for key in declared
        if committed.get(key) != declared[key]
    ] + [
        f"BENCHMARK.json: unexpected key {key!r}"
        for key in committed if key not in declared
    ]


def problems() -> list[str]:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return [f"no program to check against: {SRC}/repro is missing"]
    for entry in (SRC, HERE):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    found = []
    for path in _sources():
        with open(path) as fh:
            text = fh.read()
        found += _check_tree(path, ast.parse(text, filename=path))
        if os.path.basename(path) != "selfcheck.py":
            found += [
                f"{os.path.basename(path)}: names {name}, which ROADMAP "
                "item 3 deletes"
                for name in DOOMED if name in text
            ]
    return found + _check_manifest()


def test_selfcheck() -> None:
    assert problems() == []


if __name__ == "__main__":
    found = problems()
    for problem in found:
        print(problem)
    sys.exit(1 if found else 0)
