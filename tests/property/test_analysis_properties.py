"""Property-based tests for the static analyzer.

Two invariants:

* **soundness on clean jobs** — a well-formed staged pipeline (every
  export fed by a files-annotated dependency edge, every import
  consumed) produces no error-severity diagnostics, so the analyzer
  never blocks a job the runtime could run;
* **determinism** — analyzing the same tree twice yields the identical
  diagnostic sequence.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import (
    AbstractJobObject,
    ExecuteScriptTask,
    ImportTask,
    UserTask,
)
from repro.analysis import Severity, analyze_ajo

names = st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                max_size=10)


@st.composite
def clean_pipelines(draw):
    """A staged import -> run -> export pipeline that must lint clean."""
    job = AbstractJobObject(
        draw(names), vsite=draw(names), user_dn="CN=" + draw(names)
    )
    stages = draw(st.integers(1, 4))
    for i in range(stages):
        imp = job.add(ImportTask(
            f"in{i}", source_path="/in/" + draw(names),
            destination_path=f"input{i}.dat",
        ))
        run = job.add(UserTask(f"run{i}", executable=f"input{i}.dat"))
        job.add_dependency(imp, run)
        if draw(st.booleans()):
            exp = job.add(ImportTask(
                f"re{i}", source_path="/in/x", destination_path=f"extra{i}.dat",
            ))
            use = job.add(UserTask(f"use{i}", executable=f"extra{i}.dat"))
            job.add_dependency(exp, use)
    return job


@st.composite
def arbitrary_trees(draw, depth=1):
    """Random (possibly defective) trees: no user DN guarantee, random
    forward-only dependencies, sub-groups."""
    job = AbstractJobObject(
        draw(names),
        vsite=draw(names) if draw(st.booleans()) else "",
        user_dn="CN=u" if draw(st.booleans()) else "",
    )
    n = draw(st.integers(0, 4))
    for i in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            job.add(UserTask(f"t{i}", executable=draw(names)))
        elif kind == 1:
            job.add(ExecuteScriptTask(f"t{i}", script="#!/bin/sh\nx\n"))
        else:
            job.add(ImportTask(
                f"t{i}", source_path="/in/a", destination_path=draw(names),
            ))
    if depth > 0:
        for sub in draw(st.lists(arbitrary_trees(depth=depth - 1), max_size=2)):
            job.add(sub)
    kids = job.children
    for j in range(1, len(kids)):
        for i in range(j):
            if draw(st.integers(0, 3)) == 0:
                files = [draw(names)] if draw(st.booleans()) else []
                job.add_dependency(kids[i], kids[j], files=files)
    return job


@given(clean_pipelines())
@settings(max_examples=50, deadline=None)
def test_well_formed_jobs_produce_no_errors(job):
    report = analyze_ajo(job)
    assert report.ok, report.render()
    assert report.errors == ()
    assert not any(d.severity is Severity.ERROR for d in report.diagnostics)


@given(arbitrary_trees())
@settings(max_examples=50, deadline=None)
def test_analysis_is_deterministic(job):
    first = analyze_ajo(job)
    second = analyze_ajo(job)
    assert first.diagnostics == second.diagnostics
    assert first.to_dict() == second.to_dict()
