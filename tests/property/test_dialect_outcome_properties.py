"""Property tests: dialect render/parse totality, outcome codec."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import ActionStatus, AJOOutcome, FileOutcome, ServiceOutcome, TaskOutcome
from repro.ajo.serialize import decode_outcome, encode_outcome
from repro.batch.dialects import dialect_for
from repro.resources import ResourceSet

job_names = st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                    max_size=16)
queue_names = st.sampled_from(["batch", "small", "medium", "long"])
resources = st.builds(
    ResourceSet,
    cpus=st.integers(1, 4096),
    time_s=st.floats(1, 1e6),
    memory_mb=st.floats(1, 1e6),
)


@given(
    st.sampled_from(["nqs", "loadleveler", "vpp", "codine"]),
    job_names, queue_names, resources,
    st.lists(st.text(string.printable.replace("\n", ""), max_size=30),
             max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_dialect_render_always_parses_back(key, name, queue, res, body):
    dialect = dialect_for(key)
    script = dialect.render_script(name, queue, res, body)
    directives = dialect.parse_directives(script)
    assert directives  # every rendered script parses under its dialect
    # And its header never under a different prefix-style dialect.  Only
    # the lines render_directives emits count: the body is the user's
    # text, and a comment there may spell any dialect's prefix ("#$").
    header = dialect.render_directives(name, queue, res)
    assert script.splitlines()[1:len(header) + 1] == header
    for other in {"nqs", "vpp", "codine"} - {key}:
        prefix = dialect_for(other).directive_prefix()
        assert not any(line.startswith(prefix) for line in header)


statuses = st.sampled_from(list(ActionStatus))
small_text = st.text(max_size=40)


@st.composite
def outcomes(draw, depth=2):
    kind = draw(st.integers(0, 3 if depth > 0 else 2))
    action_id = draw(st.uuids()).hex[:8]
    if kind == 0:
        out = TaskOutcome(
            action_id=action_id,
            exit_code=draw(st.one_of(st.none(), st.integers(-255, 255))),
            stdout=draw(small_text), stderr=draw(small_text),
        )
    elif kind == 1:
        out = FileOutcome(
            action_id=action_id,
            bytes_moved=draw(st.integers(0, 2**40)),
            effective_bandwidth=draw(st.floats(0, 1e9, allow_nan=False)),
        )
    elif kind == 2:
        out = ServiceOutcome(
            action_id=action_id,
            answer=draw(st.one_of(st.none(), st.integers(),
                                  st.lists(small_text, max_size=3))),
        )
    else:
        out = AJOOutcome(action_id=action_id)
        for child in draw(st.lists(outcomes(depth=depth - 1), max_size=4)):
            out.add_child(child)
    out.status = draw(statuses)
    out.reason = draw(small_text)
    return out


@given(outcomes())
@settings(max_examples=200, deadline=None)
def test_outcome_codec_roundtrip(outcome):
    restored = decode_outcome(encode_outcome(outcome))
    assert type(restored) is type(outcome)
    assert restored.action_id == outcome.action_id
    assert restored.status is outcome.status
    assert restored.reason == outcome.reason
    if isinstance(outcome, AJOOutcome):
        assert set(restored.children) == set(outcome.children)
    if isinstance(outcome, TaskOutcome):
        assert restored.exit_code == outcome.exit_code
        assert restored.stdout == outcome.stdout
    if isinstance(outcome, FileOutcome):
        assert restored.bytes_moved == outcome.bytes_moved


@given(outcomes())
@settings(max_examples=100, deadline=None)
def test_rollup_is_deterministic_and_terminal_consistent(outcome):
    if not isinstance(outcome, AJOOutcome):
        return
    a = outcome.rollup_status()
    b = outcome.rollup_status()
    assert a is b
    # A rollup of SUCCESSFUL implies no child failed.
    if a is ActionStatus.SUCCESSFUL and outcome.children:
        assert all(
            c.status is not ActionStatus.FAILED
            for c in outcome.children.values()
        )
