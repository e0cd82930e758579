"""Tests for the recursive job object, dependencies, DAG utilities."""

import pytest

from repro.ajo import (
    AbstractJobObject,
    DependencyCycleError,
    ExecuteScriptTask,
    ListService,
    UserTask,
    ValidationError,
    critical_path_length,
    ready_actions,
    topological_order,
)
from repro.ajo.dag import predecessors_map
from repro.ajo.tasks import ImportTask, TransferTask
from repro.analysis import Severity, structure_pass


def make_task(name="t"):
    return UserTask(name, executable="./a.out")


def make_diamond():
    r"""a -> b, a -> c, b -> d, c -> d."""
    job = AbstractJobObject("diamond", vsite="V", user_dn="CN=u")
    a, b, c, d = (job.add(make_task(n)) for n in "abcd")
    job.add_dependency(a, b)
    job.add_dependency(a, c)
    job.add_dependency(b, d)
    job.add_dependency(c, d)
    return job, (a, b, c, d)


# ------------------------------------------------------------ construction
def test_add_and_children_order():
    job = AbstractJobObject("j", vsite="V")
    t1, t2 = make_task("one"), make_task("two")
    assert job.children == ()
    job.add(t1)
    # An immutable view, the same object until a member is added: a
    # reader neither copies it nor sees one that went stale.
    first = job.children
    assert first == (t1,)
    assert job.children is first
    job.add(t2)
    assert first == (t1,)
    assert job.children == (t1, t2)
    assert job.children is job.children
    assert job.tasks() == [t1, t2]
    assert job.sub_jobs() == []


def test_dependencies_view_follows_add_dependency():
    job, (a, b, c, d) = make_diamond()
    before = job.dependencies
    assert isinstance(before, tuple) and job.dependencies is before
    assert [(x.predecessor_id, x.successor_id) for x in before] == [
        (a.id, b.id), (a.id, c.id), (b.id, d.id), (c.id, d.id)
    ]
    extra = job.add_dependency(a, d)
    assert len(before) == 4
    assert job.dependencies == before + (extra,)


def test_add_duplicate_id_rejected():
    job = AbstractJobObject("j")
    t = make_task()
    job.add(t)
    with pytest.raises(ValidationError):
        job.add(t)


def test_add_self_rejected():
    job = AbstractJobObject("j")
    with pytest.raises(ValidationError):
        job.add(job)


def test_add_service_rejected():
    """Services are standalone requests, not job-graph nodes."""
    job = AbstractJobObject("j")
    with pytest.raises(ValidationError):
        job.add(ListService("l"))


def test_dependency_requires_children():
    job = AbstractJobObject("j")
    t1 = job.add(make_task())
    stranger = make_task("stranger")
    with pytest.raises(ValidationError):
        job.add_dependency(t1, stranger)
    with pytest.raises(ValidationError):
        job.add_dependency(stranger, t1)


def test_dependency_self_loop_rejected():
    job = AbstractJobObject("j")
    t = job.add(make_task())
    with pytest.raises(ValidationError):
        job.add_dependency(t, t)


def test_dependency_files_recorded():
    job = AbstractJobObject("j", vsite="V")
    a, b = job.add(make_task("a")), job.add(make_task("b"))
    dep = job.add_dependency(a, b, files=["result.dat", "mesh.grid"])
    assert dep.files == ("result.dat", "mesh.grid")


def test_recursive_structure_walk_depth_count():
    root = AbstractJobObject("root", vsite="V1", usite="FZJ", user_dn="CN=u")
    root.add(make_task("pre"))
    sub = AbstractJobObject("sub", vsite="V2", usite="ZIB")
    sub.add(make_task("main"))
    subsub = AbstractJobObject("subsub", vsite="V3", usite="LRZ")
    subsub.add(make_task("post"))
    sub.add(subsub)
    root.add(sub)
    assert root.depth() == 3
    assert root.total_actions() == 6  # 3 groups + 3 tasks
    names = [a.name for a in root.walk()]
    assert names == ["root", "pre", "sub", "main", "subsub", "post"]


def test_child_lookup():
    job = AbstractJobObject("j")
    t = job.add(make_task())
    assert job.child(t.id) is t
    with pytest.raises(ValidationError):
        job.child("nope")


# ---------------------------------------------------------------- DAG utils
def test_topological_order_diamond():
    job, (a, b, c, d) = make_diamond()
    order = topological_order(job)
    assert order.index(a.id) < order.index(b.id) < order.index(d.id)
    assert order.index(a.id) < order.index(c.id) < order.index(d.id)


def test_topological_order_deterministic_insertion_ties():
    job = AbstractJobObject("j", vsite="V")
    ts = [job.add(make_task(f"t{i}")) for i in range(5)]
    assert topological_order(job) == [t.id for t in ts]


def test_topological_order_tolerates_duplicate_edges():
    """A repeated edge must not release its successor early.

    With a -> c declared twice (once per file set, say) plus a -> b -> c,
    a naive successor list decrements c twice when a completes and emits
    c before b — the regression hypothesis found.
    """
    job = AbstractJobObject("dup", vsite="V", user_dn="CN=u")
    a, b, c = (job.add(make_task(n)) for n in "abc")
    job.add_dependency(a, c, files=["first.out"])
    job.add_dependency(a, c, files=["second.out"])
    job.add_dependency(a, b)
    job.add_dependency(b, c)
    order = topological_order(job)
    assert order.index(a.id) < order.index(b.id) < order.index(c.id)


def test_cycle_detected():
    job = AbstractJobObject("j", vsite="V")
    a, b = job.add(make_task("a")), job.add(make_task("b"))
    job.add_dependency(a, b)
    job.add_dependency(b, a)
    with pytest.raises(DependencyCycleError):
        topological_order(job)


def test_ready_actions_progression():
    job, (a, b, c, d) = make_diamond()
    assert ready_actions(job, completed=[]) == [a.id]
    assert set(ready_actions(job, completed=[a.id])) == {b.id, c.id}
    assert ready_actions(job, completed=[a.id, b.id]) == [c.id]
    assert ready_actions(job, completed=[a.id, b.id, c.id]) == [d.id]
    assert ready_actions(job, completed=[a.id, b.id, c.id, d.id]) == []


def test_critical_path_unit_weights():
    job, _ = make_diamond()
    assert critical_path_length(job) == 3.0  # a -> b/c -> d


def test_critical_path_custom_weights():
    job, (a, b, c, d) = make_diamond()
    weights = {a.id: 1.0, b.id: 10.0, c.id: 2.0, d.id: 1.0}
    assert critical_path_length(job, weight=weights.__getitem__) == 12.0


def test_predecessors_map():
    job, (a, b, c, d) = make_diamond()
    preds = predecessors_map(job)
    assert preds[a.id] == set()
    assert preds[d.id] == {b.id, c.id}


def test_empty_job_trivial_dag():
    job = AbstractJobObject("empty")
    assert topological_order(job) == []
    assert critical_path_length(job) == 0.0


# ---------------------------------------------------------------- validation
def structure_errors(job, require_user=True):
    """``(code, message)`` of the structure pass's error diagnostics."""
    return [
        (d.code, d.message)
        for d in structure_pass(job, require_user=require_user)
        if d.severity is Severity.ERROR
    ]


def assert_refused(job, code, match):
    [(found, message)] = structure_errors(job)
    assert found == code and match in message


def test_validate_good_job():
    job, _ = make_diamond()
    assert structure_errors(job) == []


def test_validate_requires_user_dn():
    job = AbstractJobObject("j", vsite="V")
    job.add(make_task())
    assert_refused(job, "AJO101", "user DN")
    assert structure_errors(job, require_user=False) == []


def test_validate_requires_vsite_when_tasks_present():
    job = AbstractJobObject("j", user_dn="CN=u")
    job.add(make_task())
    assert_refused(job, "AJO103", "Vsite")


def test_validate_pure_container_needs_no_vsite():
    root = AbstractJobObject("root", user_dn="CN=u")
    sub = AbstractJobObject("sub", vsite="V")
    sub.add(make_task())
    root.add(sub)
    assert structure_errors(root) == []


def test_validate_detects_nested_cycle():
    root = AbstractJobObject("root", user_dn="CN=u")
    sub = AbstractJobObject("sub", vsite="V")
    a, b = sub.add(make_task("a")), sub.add(make_task("b"))
    sub.add_dependency(a, b)
    sub.add_dependency(b, a)
    root.add(sub)
    assert_refused(root, "AJO104", "cycle")


def test_validate_transfer_to_own_usite_rejected():
    job = AbstractJobObject("j", vsite="V", usite="FZJ", user_dn="CN=u")
    job.add(
        TransferTask(
            "loop", source_path="a", destination_path="b", destination_usite="FZJ"
        )
    )
    assert_refused(job, "AJO105", "own Usite")


def test_validate_duplicate_ids_across_tree():
    root = AbstractJobObject("root", user_dn="CN=u")
    sub1 = AbstractJobObject("s1", vsite="V")
    sub2 = AbstractJobObject("s2", vsite="V")
    sub1.add(UserTask("t", executable="x", action_id="dup"))
    sub2.add(UserTask("t", executable="x", action_id="dup"))
    root.add(sub1)
    root.add(sub2)
    assert_refused(root, "AJO102", "duplicate")


# -------------------------------------------------------------- task details
def test_compile_task_object_files():
    from repro.ajo import CompileTask

    t = CompileTask("c", sources=["main.f90", "solver.f", "raw"])
    assert t.object_files() == ["main.o", "solver.o", "raw.o"]


def test_compile_task_software_requirement():
    from repro.ajo import CompileTask, LinkTask

    assert CompileTask("c", sources=["m.f90"]).required_software() == [
        ("compiler", "f90")
    ]
    link = LinkTask("l", objects=["m.o"], output="a.out", libraries=["mpi"])
    assert ("library", "mpi") in link.required_software()


def test_task_constructor_validation():
    from repro.ajo import CompileTask, LinkTask

    with pytest.raises(ValidationError):
        UserTask("t", executable="")
    with pytest.raises(ValidationError):
        ExecuteScriptTask("t", script="")
    with pytest.raises(ValidationError):
        CompileTask("t", sources=[])
    with pytest.raises(ValidationError):
        LinkTask("t", objects=[], output="a.out")
    with pytest.raises(ValidationError):
        LinkTask("t", objects=["m.o"], output="")
    with pytest.raises(ValidationError):
        ImportTask("t", source_path="", destination_path="x")
    with pytest.raises(ValidationError):
        ImportTask("t", source_path="a", destination_path="b", source_space="uspace")
    with pytest.raises(ValidationError):
        TransferTask("t", source_path="a", destination_path="b", destination_usite="")


def test_service_constructor_validation():
    from repro.ajo import ControlService, QueryService

    with pytest.raises(ValidationError):
        ControlService("c", target_job_id="")
    with pytest.raises(ValidationError):
        ControlService("c", target_job_id="x", verb="dance")
    with pytest.raises(ValidationError):
        QueryService("q", target_job_id="x", detail="everything")
