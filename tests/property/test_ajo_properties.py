"""Property-based tests for the AJO: codec totality, DAG invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import (
    AbstractJobObject,
    ExecuteScriptTask,
    ImportTask,
    UserTask,
    critical_path_length,
    decode_ajo,
    encode_ajo,
    topological_order,
)
from repro.ajo.dag import JobPlan
from repro.resources import ResourceRequest

names = st.text(string.ascii_letters + string.digits + " _-", min_size=1,
                max_size=12)


@st.composite
def tasks(draw):
    kind = draw(st.integers(0, 2))
    name = draw(names)
    if kind == 0:
        return UserTask(
            name,
            executable=draw(names),
            arguments=draw(st.lists(names, max_size=3)),
            resources=ResourceRequest(
                cpus=draw(st.integers(1, 512)),
                time_s=draw(st.floats(1, 1e5)),
            ),
        )
    if kind == 1:
        return ExecuteScriptTask(name, script="#!/bin/sh\n" + draw(names))
    return ImportTask(
        name, source_path="/" + draw(names), destination_path=draw(names)
    )


@st.composite
def job_trees(draw, depth=2):
    job = AbstractJobObject(
        draw(names), vsite=draw(names), usite=draw(names),
        user_dn="CN=" + draw(names), account_group=draw(names),
    )
    children = draw(st.lists(tasks(), min_size=0, max_size=5))
    for child in children:
        job.add(child)
    if depth > 0:
        for sub in draw(st.lists(job_trees(depth=depth - 1), max_size=2)):
            job.add(sub)
    # Random forward-only dependencies (guaranteed acyclic).
    kids = job.children
    if len(kids) >= 2:
        n_deps = draw(st.integers(0, min(4, len(kids) * (len(kids) - 1) // 2)))
        for _ in range(n_deps):
            i = draw(st.integers(0, len(kids) - 2))
            j = draw(st.integers(i + 1, len(kids) - 1))
            files = draw(st.lists(names, max_size=2))
            try:
                job.add_dependency(kids[i], kids[j], files=files)
            except Exception:
                pass
    return job


@given(job_trees())
@settings(max_examples=120, deadline=None)
def test_codec_roundtrip_any_tree(job):
    assert decode_ajo(encode_ajo(job)) == job


@given(job_trees())
@settings(max_examples=120, deadline=None)
def test_codec_deterministic(job):
    assert encode_ajo(job) == encode_ajo(job)


@given(job_trees())
@settings(max_examples=100, deadline=None)
def test_topological_order_respects_every_edge(job):
    order = topological_order(job)
    assert sorted(order) == sorted(c.id for c in job.children)
    position = {cid: i for i, cid in enumerate(order)}
    for dep in job.dependencies:
        assert position[dep.predecessor_id] < position[dep.successor_id]


@given(job_trees())
@settings(max_examples=100, deadline=None)
def test_plan_inbound_simulation_completes_everything(job):
    """Repeatedly completing the children whose inbound dependencies all
    ended visits every child exactly once."""
    plan = JobPlan.of(job)
    completed: list[str] = []
    seen = set()
    for _ in range(len(job.children) + 1):
        done = set(completed)
        ready = [
            c.id for c in job.children
            if c.id not in done and plan.predecessors(c.id) <= done
        ]
        if not ready:
            break
        for cid in ready:
            assert cid not in seen
            seen.add(cid)
            completed.append(cid)
    assert seen == {c.id for c in job.children}


@given(job_trees())
@settings(max_examples=100, deadline=None)
def test_critical_path_bounds(job):
    n = len(job.children)
    cp = critical_path_length(job)
    if n == 0:
        assert cp == 0
    else:
        assert 1 <= cp <= n
        # The critical path is at least as long as any single path's edges.
        assert cp >= 1


@given(job_trees())
@settings(max_examples=60, deadline=None)
def test_walk_counts_match(job):
    assert job.total_actions() == len(list(job.walk()))
    assert job.depth() >= 1
