"""The developer linter (repro.devlint): every RD rule, both ways.

Each rule gets the same treatment the consign-time analyzer's tests
give the AJO rules: a seeded violation must produce exactly the
expected code, and the clean spelling of the same construct must
produce nothing.  On top of the rule packs, the engine machinery is
pinned — inline pragmas, deterministic ordering — and one acceptance test runs the real rule set over the real repo,
which must stay clean (devlint is a hard CI gate).
"""

import ast
from pathlib import Path

import pytest

import repro.errors
import repro.observability.registry as obs_registry
from repro.devlint import (
    DevDiagnostic,
    Severity,
    default_rules,
    discover_project,
    run_devlint,
)
from repro.devlint.diagnostics import DevReport
from repro.devlint.engine import Project, SourceFile, _parse_pragmas
from repro.devlint.rules_determinism import determinism_rules
from repro.devlint.rules_observability import (
    DeadRegistryEntryRule,
    MetricNameRule,
    extract_metric_uses,
)
from repro.devlint.rules_protocol import (
    ContentPassRule,
    ModuleGetattrRule,
    PrivateReachRule,
)
from repro.devlint.rules_registry import (
    ReadmeCodeTableRule,
    readme_table_codes,
)


def sf(source: str, rel: str = "src/repro/example.py") -> SourceFile:
    return SourceFile(
        path=Path("/repo") / rel,
        rel=rel,
        source=source,
        tree=ast.parse(source),
        ignores=_parse_pragmas(source),
    )


def project(*files: SourceFile, readme: str = "") -> Project:
    return Project(root=Path("/repo"), files=list(files), readme=readme)


def codes_from(rule, f: SourceFile) -> list[str]:
    return [d.code for d in rule.run(f)]


def rule_by_code(code: str):
    for rule in determinism_rules():
        if rule.code == code:
            return rule
    raise LookupError(code)


# -- RD1xx determinism --------------------------------------------------------

@pytest.mark.parametrize("source", [
    "import time\nt = time.time()\n",
    "import time\nt = time.monotonic()\n",
    "import time\nclock = time.perf_counter\n",          # bare reference
    "from datetime import datetime\nd = datetime.now()\n",
    "import datetime\nd = datetime.date.today()\n",
])
def test_rd101_fires_on_wall_clock(source):
    assert codes_from(rule_by_code("RD101"), sf(source)) == ["RD101"]


def test_rd101_quiet_on_sim_clock():
    clean = "def handler(sim):\n    return sim.now\n"
    assert codes_from(rule_by_code("RD101"), sf(clean)) == []


def test_rd101_allowlists_the_aio_transport():
    source = "import time\nt = time.monotonic()\n"
    f = sf(source, rel="src/repro/net/aio_transport.py")
    assert codes_from(rule_by_code("RD101"), f) == []


@pytest.mark.parametrize("source", [
    "import random\nx = random.random()\n",
    "import random\nrandom.shuffle(items)\n",
    "import random\nrng = random.Random()\n",
])
def test_rd102_fires_on_unseeded_randomness(source):
    assert codes_from(rule_by_code("RD102"), sf(source)) == ["RD102"]


def test_rd102_quiet_on_seeded_rng():
    clean = "import random\nrng = random.Random(seed)\nx = rng.random()\n"
    assert codes_from(rule_by_code("RD102"), sf(clean)) == []


@pytest.mark.parametrize("source", [
    "import os\nkey = os.urandom(16)\n",
    "import uuid\njob = uuid.uuid4()\n",
    "import secrets\ntok = secrets.token_hex(8)\n",
])
def test_rd103_fires_on_os_entropy(source):
    assert codes_from(rule_by_code("RD103"), sf(source)) == ["RD103"]


def test_rd104_fires_on_unsorted_listing_and_quiet_when_sorted():
    dirty = "import os\nfor name in os.listdir(path):\n    use(name)\n"
    clean = "import os\nfor name in sorted(os.listdir(path)):\n    use(name)\n"
    rule = rule_by_code("RD104")
    assert codes_from(rule, sf(dirty)) == ["RD104"]
    assert codes_from(rule, sf(clean)) == []


def test_rd105_fires_on_set_iteration_and_quiet_when_sorted():
    dirty = "for item in {1, 2, 3}:\n    use(item)\n"
    algebra = "xs = [x for x in set(a) | set(b)]\n"
    clean = "for item in sorted({1, 2, 3}):\n    use(item)\n"
    rule = rule_by_code("RD105")
    assert codes_from(rule, sf(dirty)) == ["RD105"]
    assert codes_from(rule, sf(algebra)) == ["RD105"]
    assert codes_from(rule, sf(clean)) == []


def test_rd106_fires_on_id_ordering():
    keyed = "order = sorted(objs, key=id)\n"
    compared = "if id(a) < id(b):\n    swap()\n"
    clean = "order = sorted(objs, key=lambda o: o.name)\n"
    rule = rule_by_code("RD106")
    assert codes_from(rule, sf(keyed)) == ["RD106"]
    # One finding per id() call in the comparison.
    assert set(codes_from(rule, sf(compared))) == {"RD106"}
    assert codes_from(rule, sf(clean)) == []


# -- RD2xx error-code registry ------------------------------------------------

class _FakeBase:
    code = "fake.base"


def test_readme_table_codes_only_reads_code_tables():
    readme = (
        "| code | class |\n|---|---|\n| `net.error` | `NetworkError` |\n"
        "\nprose mentioning `другое.имя` and `span.name`\n"
        "| metric | value |\n|---|---|\n| `gateway.requests` | 1 |\n"
    )
    assert [c for _, c in readme_table_codes(readme)] == ["net.error"]


def test_rd204_and_rd205_diff_readme_against_registry(monkeypatch):
    monkeypatch.setattr(
        repro.errors, "error_code_registry",
        lambda: {"net.error": _FakeBase, "extra.code": _FakeBase},
    )
    readme = (
        "| code | class |\n|---|---|\n"
        "| `net.error` | `X` |\n| `bogus.code` | `Y` |\n"
    )
    found = list(ReadmeCodeTableRule().check_project(project(readme=readme)))
    assert sorted(d.code for d in found) == ["RD204", "RD205"]
    by_code = {d.code: d for d in found}
    assert "bogus.code" in by_code["RD204"].message
    assert "extra.code" in by_code["RD205"].message


# -- RD3xx observability registry ---------------------------------------------

@pytest.fixture
def small_registry(monkeypatch):
    monkeypatch.setattr(obs_registry, "COUNTERS", frozenset({"gw.requests"}))
    monkeypatch.setattr(obs_registry, "COUNTER_PREFIXES", frozenset({"fam."}))
    monkeypatch.setattr(obs_registry, "HISTOGRAMS", frozenset({"gw.seconds"}))
    monkeypatch.setattr(obs_registry, "SPANS", frozenset({"gw.request"}))
    monkeypatch.setattr(obs_registry, "SPAN_PREFIXES", frozenset())


def test_extract_metric_uses_reads_literals_and_fstring_prefixes():
    f = sf(
        'm.counter("a.b").inc()\n'
        'm.histogram("c.d").observe(1)\n'
        't.start_span("e.f", parent=None)\n'
        'm.counter(f"fam.{kind}").inc()\n'
        "m.counter(name_variable)\n"  # forwarder: skipped
    )
    uses = extract_metric_uses(f)
    # The variable-name forwarder must be skipped; order is not part of
    # the contract (callers aggregate into sets).
    assert sorted((u.kind, u.name, u.dynamic) for u in uses) == [
        ("counter", "a.b", False),
        ("counter", "fam.", True),
        ("histogram", "c.d", False),
        ("span", "e.f", False),
    ]


def test_rd301_302_303_fire_on_unregistered_names(small_registry):
    f = sf(
        'm.counter("gw.requets").inc()\n'      # typo'd counter
        'm.histogram("gw.secnds").observe(1)\n'
        't.start_span("gw.reqest")\n'
    )
    found = list(MetricNameRule().check_project(project(f)))
    assert sorted(d.code for d in found) == ["RD301", "RD302", "RD303"]


def test_rd304_fires_on_unknown_dynamic_family(small_registry):
    f = sf('m.counter(f"other.{kind}").inc()\n')
    found = list(MetricNameRule().check_project(project(f)))
    assert [d.code for d in found] == ["RD304"]


def test_metric_rules_quiet_on_registered_names(small_registry):
    f = sf(
        'm.counter("gw.requests").inc()\n'
        'm.histogram("gw.seconds").observe(1)\n'
        't.start_span("gw.request")\n'
        'm.counter(f"fam.{kind}").inc()\n'
    )
    assert list(MetricNameRule().check_project(project(f))) == []
    assert list(DeadRegistryEntryRule().check_project(project(f))) == []


def test_rd305_fires_on_dead_registry_entries(small_registry):
    # Nothing emits gw.requests / gw.seconds / gw.request / fam.*
    found = list(DeadRegistryEntryRule().check_project(project(sf("x = 1\n"))))
    assert {d.code for d in found} == {"RD305"}
    assert len(found) == 4


def test_metric_rules_skip_the_observability_layer(small_registry):
    f = sf(
        'self.counter("anything.at_all").inc()\n',
        rel="src/repro/observability/metrics.py",
    )
    assert list(MetricNameRule().check_project(project(f))) == []


# -- RD4xx ownership ----------------------------------------------------------

def test_rd404_fires_on_module_getattr():
    f = sf(
        "def __getattr__(name):\n"
        "    from repro import new_home\n"
        "    return getattr(new_home, name)\n",
        rel="src/repro/old_home.py",
    )
    assert codes_from(ModuleGetattrRule(), f) == ["RD404"]


def test_rd404_quiet_on_the_two_justified_modules_and_on_class_hooks():
    hook = "def __getattr__(name):\n    raise AttributeError(name)\n"
    for rel, reason in ModuleGetattrRule.ALLOWED.items():
        assert reason and codes_from(ModuleGetattrRule(), sf(hook, rel=rel)) == []
    in_class = sf(
        "class Lazy:\n"
        "    def __getattr__(self, name):\n"
        "        raise AttributeError(name)\n",
        rel="src/repro/lazy.py",
    )
    assert codes_from(ModuleGetattrRule(), in_class) == []


#: Spelled apart so a repo-wide grep for reach-ins finds none, not these.
NJS = "njs"


def test_rd405_fires_on_reach_into_another_owners_state():
    gateway = sf(
        "class Gateway:\n"
        "    def jobs(self):\n"
        f"        return len(self.{NJS}._runs)\n",
        rel="src/repro/server/gateway.py",
    )
    assert codes_from(PrivateReachRule(), gateway) == ["RD405"]
    # Outside the server tier only a *write* into the NJS is the rule's
    # business, through a subscript or not.
    injector = sf(
        "def wipe(usite, job_id):\n"
        f"    seen = usite.{NJS}._runs\n"
        f"    usite.{NJS}._crashed = True\n"
        f"    del usite.{NJS}._runs[job_id]\n",
        rel="src/repro/faults/injector.py",
    )
    assert codes_from(PrivateReachRule(), injector) == ["RD405", "RD405"]


def test_rd405_quiet_through_self_and_inside_the_defining_module():
    f = sf(
        "class RunIndex:\n"
        "    def __init__(self):\n"
        "        self._status = {}\n"
        "    def verify(self, runs):\n"
        "        expect = RunIndex()\n"
        "        assert self._status == expect._status\n"
        "        return _helper(runs).__class__\n"
        "def _helper(runs):\n"
        "    return runs.njs.runs\n",
        rel="src/repro/server/njs/runindex.py",
    )
    assert codes_from(PrivateReachRule(), f) == []


def test_rd406_fires_on_a_new_reader_of_file_content():
    store = sf(
        "import hashlib\n"
        "from zlib import crc32\n"
        "def put(body):\n"
        "    return hashlib.sha256(body).hexdigest(), crc32(body)\n",
        rel="src/repro/storage/outcomes.py",
    )
    assert codes_from(ContentPassRule(), store) == ["RD406", "RD406"]


def test_rd406_quiet_in_the_owning_modules_and_on_the_held_checks():
    reader = "import zlib\ndef crc(chunk):\n    return zlib.crc32(chunk)\n"
    for rel in ("src/repro/net/stream.py", "src/repro/vfs/body.py",
                "src/repro/security/rsa.py"):
        assert codes_from(ContentPassRule(), sf(reader, rel=rel)) == []
    holder = sf(
        "import hashlib\n"
        "def put(body):\n"
        "    return body.digest, body.chunk_crcs(4096), hashlib.md5\n",
        rel="src/repro/storage/outcomes.py",
    )
    assert codes_from(ContentPassRule(), holder) == []


# -- engine: pragmas, ordering, report ----------------------------------------

def test_inline_pragma_suppresses_on_line_and_from_line_above():
    same_line = sf(
        "import time\nt = time.time()  # devlint: ignore[RD101]\n"
    )
    line_above = sf(
        "import time\n# devlint: ignore[RD101]\nt = time.time()\n"
    )
    other_code = sf(
        "import time\nt = time.time()  # devlint: ignore[RD104]\n"
    )
    rules = [rule_by_code("RD101")]
    assert run_devlint(rules=rules, project=project(same_line)).ok
    assert run_devlint(rules=rules, project=project(line_above)).ok
    report = run_devlint(rules=rules, project=project(other_code))
    assert [d.code for d in report.diagnostics] == ["RD101"]


def test_bare_pragma_suppresses_every_code():
    f = sf("import time\nt = time.time()  # devlint: ignore\n")
    report = run_devlint(rules=[rule_by_code("RD101")], project=project(f))
    assert report.ok and report.suppressed == 1


def test_pragma_inside_string_literal_does_not_count():
    f = sf('msg = "# devlint: ignore[RD101]"\nimport time\nt = time.time()\n')
    report = run_devlint(rules=[rule_by_code("RD101")], project=project(f))
    assert [d.code for d in report.diagnostics] == ["RD101"]


def test_report_orders_diagnostics_and_serializes():
    f = sf(
        "import time\n"
        "b = time.time()\n"
        "import os\n"
        "for x in os.listdir(p):\n"
        "    use(x)\n"
    )
    report = run_devlint(
        rules=[rule_by_code("RD104"), rule_by_code("RD101")],
        project=project(f),
    )
    assert [d.code for d in report.diagnostics] == ["RD101", "RD104"]
    payload = report.to_dict()
    assert payload["ok"] is False and payload["errors"] == 2
    rendered = report.render()
    assert "RD101" in rendered and "error(s)" in rendered


def test_severity_gate_only_counts_errors():
    warn = DevDiagnostic(
        code="RD999", severity=Severity.WARNING, message="m", file="f", line=1
    )
    report = DevReport(diagnostics=(warn,))
    assert report.ok and len(report.warnings) == 1


# -- acceptance: the repo itself is clean -------------------------------------

def test_default_rules_cover_all_four_packs():
    packs = {rule.code[:3] for rule in default_rules()}
    assert packs == {"RD1", "RD2", "RD3", "RD4"}


def test_repo_tree_is_devlint_clean():
    """The hard CI gate, as a test: the shipped tree has zero findings."""
    report = run_devlint()
    assert report.ok, report.render()
    assert report.files_scanned > 100


def test_no_module_outgrows_its_part():
    """The NJS was one 1,969-line class once; a module that passes 550
    lines is two parts sharing a file."""
    sizes = {f.rel: f.source.count("\n") for f in discover_project().files}
    assert len(sizes) > 100
    assert {rel: n for rel, n in sizes.items() if n > 550} == {}


def test_discover_project_reads_sources_and_readme():
    p = discover_project()
    rels = {f.rel for f in p.files}
    assert "src/repro/devlint/engine.py" in rels
    assert all(rel.startswith("src/repro/") for rel in rels)
    assert "unicore-repro" in p.readme
