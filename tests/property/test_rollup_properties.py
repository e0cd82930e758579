"""Property test: a group's kept roll-up is the roll-up rule, after every write.

Each job group keeps a tally of its children's progress states, which
the one writer (a mark, a child added or replaced) updates, so the JMC's
group icon is read, not recomputed.  Here random trees take random
sequences of the writes the NJS makes — a task marked (QUEUED, or
terminal), a forwarded group rejected wholesale (its children not
attempted, itself FAILED), a returned group's decoded tree spliced in
for its placeholder, a group's own mark — and after every step every
group's kept roll-up must equal the recursive rule written out below.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ajo import ActionStatus, AJOOutcome, TaskOutcome
from repro.ajo.serialize import decode_outcome, encode_outcome

S = ActionStatus
IN_FLIGHT = (S.PENDING, S.QUEUED, S.RUNNING)


def reference(group: AJOOutcome) -> ActionStatus:
    """The roll-up rule, recomputed from the whole subtree."""
    if group.status in (S.FAILED, S.KILLED):
        return group.status
    statuses = {progress(child) for child in group.children.values()}
    if not statuses:
        return group.status
    if any(not s.is_terminal for s in statuses):
        for status in (S.RUNNING, S.QUEUED):
            if status in statuses:
                return status
        return S.PENDING
    for status in (S.FAILED, S.KILLED):
        if status in statuses:
            return status
    if statuses == {S.NOT_ATTEMPTED}:
        return S.NOT_ATTEMPTED
    return S.SUCCESSFUL


def progress(child) -> ActionStatus:
    if isinstance(child, AJOOutcome) and not child.status.is_terminal:
        rolled = reference(child)
        if not rolled.is_terminal:
            return rolled
    return child.status


def walk(outcome):
    yield outcome
    if isinstance(outcome, AJOOutcome):
        for child in outcome.children.values():
            yield from walk(child)


def groups(root):
    return [node for node in walk(root) if isinstance(node, AJOOutcome)]


def parents(root):
    """child id -> its group, for every node under ``root``."""
    return {
        child.action_id: group
        for group in groups(root) for child in group.children.values()
    }


def tree(draw, ids, depth, statuses):
    """A group whose every node is given a status drawn from
    ``statuses`` before it joins its parent, as a decoded tree's are."""
    group = AJOOutcome(action_id=f"g{next(ids)}")
    for _ in range(draw(st.integers(0, 4))):
        if depth and draw(st.booleans()):
            child = tree(draw, ids, depth - 1, statuses)
        else:
            child = TaskOutcome(action_id=f"t{next(ids)}")
            child.status = draw(statuses)
        group.add_child(child)
    group.status = draw(statuses)
    return group


@st.composite
def programs(draw):
    ids = itertools.count()
    root = tree(draw, ids, 3, st.sampled_from(IN_FLIGHT))
    steps = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**6)),
                          max_size=30))
    return root, ids, steps


def assert_kept(root):
    for group in groups(root):
        assert group.rollup_status() is reference(group), group.action_id


@given(programs(), st.data())
@settings(max_examples=300, deadline=None)
def test_every_groups_kept_rollup_is_the_rule_after_every_write(program, data):
    root, ids, steps = program
    assert_kept(root)
    for kind, pick in steps:
        open_tasks = [n for n in walk(root)
                      if isinstance(n, TaskOutcome) and not n.status.is_terminal]
        open_groups = [g for g in groups(root)
                       if g is not root and not g.status.is_terminal]
        if kind == 0 and open_tasks:  # a task delivered, runs, or ends
            task = open_tasks[pick % len(open_tasks)]
            task.mark(data.draw(st.sampled_from(list(S)[1:])))
        elif kind == 1 and open_tasks:  # the executor's QUEUED mark
            task = open_tasks[pick % len(open_tasks)]
            if task.status is S.PENDING:
                task.mark(S.QUEUED)
        elif kind == 2 and open_groups:  # a forwarded group rejected
            group = open_groups[pick % len(open_groups)]
            for node in walk(group):
                if node is not group and not node.status.is_terminal:
                    node.mark(S.NOT_ATTEMPTED, reason="group rejected")
            group.mark(S.FAILED)
        elif kind == 3 and open_groups:  # a returned group spliced in
            group = open_groups[pick % len(open_groups)]
            returned = tree(data.draw, ids, 2, st.sampled_from(list(S)))
            returned.status = data.draw(st.sampled_from(list(S)[3:]))
            spliced = decode_outcome(encode_outcome(returned))
            spliced.action_id = group.action_id
            parents(root)[group.action_id].add_child(spliced)
            assert_kept(spliced)
        elif kind == 4 and open_groups:  # a group's own FAILED or KILLED
            group = open_groups[pick % len(open_groups)]
            group.mark(data.draw(st.sampled_from([S.FAILED, S.KILLED])))
        assert_kept(root)
