"""Property: a kept status reply is never stale, and neither is a kept view.

An NJS run keeps its encoded QUERY reply per detail until its next status
change, and the JMC keeps the view it decoded beside the bytes it came
from.  Hypothesis draws programs on two sites — submit a one-site job
(at either site) or one that forwards a group, hold, resume or cancel a
job, let simulated time pass, crash an NJS and restart it — and after
every step:

* for every run at both sites, live or finished, and every detail, the
  reply the run serves equals a fresh encoding of the tree its AJO and
  outcome tree render now (a finished run's both decoded from storage);
* polling every submitted job through the session gives the view of the
  reply bytes the gateway sent for that poll.

Removing the clear in ``JobRun.notify_change`` fails the first, and so
does a finished run given replies rendered before its job's last status
change; a JMC that keeps its view by job id alone fails the second.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import asn1
from repro.api import GridSession
from repro.errors import ReproError
from repro.grid import build_grid
from repro.server.njs.jobrun import status_view

SITES = {"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}
DETAILS = ("job", "groups", "tasks")

_STEPS = st.one_of(
    st.tuples(
        st.just("submit"), st.sampled_from(["FZJ", "ZIB", "forwarded"]),
        st.sampled_from([5.0, 60.0, 400.0]),
    ),
    st.tuples(st.sampled_from(["hold", "resume", "cancel"]), st.integers(0, 9)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 5.0, 50.0, 500.0])),
    st.tuples(st.just("crash"), st.sampled_from(["FZJ", "ZIB"]), st.sampled_from([1.0, 20.0])),
)


def _submit(session, where, runtime_s):
    usite = "ZIB" if where == "ZIB" else "FZJ"
    job = session.new_job(f"memo-{where}", SITES[usite][0], usite)
    first = job.script_task("first", "#!/bin/sh\na\n", simulated_runtime_s=runtime_s)
    second = job.script_task("second", "#!/bin/sh\nb\n", simulated_runtime_s=runtime_s)
    job.depends(first, second)
    if where == "forwarded":
        sub = job.sub_job("remote", vsite="ZIB-SP2", usite="ZIB")
        sub.script_task("there", "#!/bin/sh\nr\n", simulated_runtime_s=runtime_s)
        job.depends(second, sub.ajo)
    return session.submit(job)


def _step(grid, session, handles, step):
    verb = step[0]
    if verb == "submit":
        handles.append(_submit(session, *step[1:]))
    elif verb == "advance":
        grid.sim.run(until=grid.sim.now + step[1])
    elif verb == "crash":
        njs = grid.usites[step[1]].njs
        njs.crash()
        grid.sim.run(until=grid.sim.now + step[2])
        njs.restart()
    elif handles:
        handle = handles[step[1] % len(handles)]
        try:
            getattr(session, verb)(handle)
        except ReproError:
            pass  # a finished job is past hold; a cancelled one past resume


def _spy_on_replies(grid):
    """``(job id, detail) -> bytes`` of the last reply each NJS served."""
    served: dict[tuple[str, str], bytes] = {}
    for usite in grid.usites.values():
        def spied(job_id, detail, reply=usite.njs.status_reply):
            served[job_id, detail] = data = reply(job_id, detail)
            return data
        usite.njs.status_reply = spied
    return served


@settings(max_examples=25, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=10))
def test_a_kept_status_reply_and_view_are_never_stale(program):
    grid = build_grid(SITES, seed=31)
    user = grid.add_user("Memo", logins={"FZJ": "memo", "ZIB": "memo"})
    session = GridSession(grid, user, "FZJ")
    served = _spy_on_replies(grid)
    handles: list = []
    for step in program:
        _step(grid, session, handles, step)
        for usite in grid.usites.values():
            for run in usite.njs.runs.values():
                root, outcomes = run.root, run.outcomes
                for detail in DETAILS:
                    fresh = asn1.encode(status_view(root, outcomes, detail).to_value())
                    assert run.status_reply(detail) == fresh, (step, run.job_id, detail)
        for handle in handles:
            view = session.status(handle, allow_stale=False)
            assert asn1.encode(view.to_value()) == served[handle.job_id, "tasks"], step
