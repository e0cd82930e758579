"""Unit tests for translation tables and Vsite assembly."""

import pytest

from repro.batch import BatchJobSpec, machine
from repro.batch.base import BatchJobRecord
from repro.resources import ResourceSet
from repro.server import IncarnationError, TranslationTable
from repro.server.vsite import Vsite, default_translation_for
from repro.simkernel import Simulator


# ----------------------------------------------------------- translation
def test_map_software_hit_and_miss():
    table = TranslationTable(vsite="V", software={"f90": "xlf90"})
    assert table.map_software("f90") == "xlf90"
    assert table.has_software("f90")
    assert not table.has_software("cc")
    with pytest.raises(IncarnationError, match="no entry"):
        table.map_software("cc")


def test_map_environment_renames_known_passes_unknown():
    table = TranslationTable(
        vsite="V", environment={"UC_THREADS": "OMP_NUM_THREADS"}
    )
    mapped = table.map_environment({"UC_THREADS": "4", "HOME": "/u"})
    assert mapped == {"OMP_NUM_THREADS": "4", "HOME": "/u"}


def test_render_run_with_and_without_prefix():
    with_prefix = TranslationTable(vsite="V", run_prefix="mpprun -n {cpus}")
    assert (
        with_prefix.render_run("app.exe", ["-x"], cpus=8)
        == "mpprun -n 8 ./app.exe -x"
    )
    bare = TranslationTable(vsite="V")
    assert bare.render_run("./app.exe", [], cpus=1) == "./app.exe"


def test_render_copy():
    table = TranslationTable(vsite="V", copy_command="rcp {src} {dst}")
    assert table.render_copy("/a", "/b") == "rcp /a /b"


@pytest.mark.parametrize("name,f90,prefix", [
    ("FZJ-T3E", "f90", "mpprun"),
    ("RUKA-SP2", "xlf90", "poe"),
    ("LRZ-VPP", "frt", "vppexec"),
])
def test_default_translation_matches_architecture(name, f90, prefix):
    table = default_translation_for(machine(name))
    assert table.map_software("f90") == f90
    assert prefix in table.run_prefix


# ------------------------------------------------------------------ vsite
def test_vsite_default_resource_page_mirrors_machine():
    sim = Simulator()
    vsite = Vsite(sim, machine("DWD-SX4"))
    page = vsite.resource_page
    assert page.vsite == "DWD-SX4"
    assert page.architecture == "NEC SX-4"
    assert page.ranges["cpus"].maximum == 32
    assert page.software.has("compiler", "f90")
    # The page's compiler invocation matches the translation table.
    assert (
        page.software.get("compiler", "f90").invocation
        == vsite.translation.map_software("f90")
    )


def test_vsite_page_time_limit_tracks_queues():
    from repro.batch import QueueConfig

    sim = Simulator()
    vsite = Vsite(
        sim, machine("FZJ-T3E"),
        queues=[
            QueueConfig(name="batch", max_cpus=512, max_time_s=7200),
            QueueConfig(name="long", max_cpus=64, max_time_s=86400),
        ],
    )
    assert vsite.resource_page.ranges["time_s"].maximum == 86400


def test_vsite_repr():
    sim = Simulator()
    assert "Cray" in repr(Vsite(sim, machine("FZJ-T3E")))


class _Untouchable(BatchJobRecord):
    """A record that fails whoever reads any of its fields."""

    __slots__ = ()

    def __getattribute__(self, name):
        raise AssertionError(f"a terminal record's {name} was read")


def test_capacity_reads_live_jobs_only():
    """After many finished jobs, the capacity report and the backlog a
    broker places by read the queued and running jobs, and no finished
    record: their cost tracks the queue, not the history."""
    sim = Simulator()
    vsite = Vsite(sim, machine("FZJ-T3E"))
    batch, cpus = vsite.batch, vsite.machine.cpus

    def submit(name, cpus, time_s):
        resources = ResourceSet(cpus=cpus, time_s=time_s, memory_mb=64.0)
        return batch.submit(BatchJobSpec(
            name=name, owner="alice", queue="batch", resources=resources,
            script=batch.dialect.render_script(name, "batch", resources, ["a.out"]),
        ))

    for n in range(50):
        submit(f"done{n}", 8, 60.0)
    sim.run()
    finished = batch.all_records()
    submit("running", cpus, 600.0)
    submit("queued", cpus, 1200.0)
    sim.run(until=sim.now + 100.0)
    for record in finished:
        assert record.state.is_terminal
        record.__class__ = _Untouchable

    report = vsite.capacity("FZJ")
    assert (report.queued_jobs, report.running_jobs, report.free_cpus) == (1, 1, 0)
    assert batch.backlog_cpu_s() == report.backlog_cpu_s == cpus * (1200.0 + 500.0)
