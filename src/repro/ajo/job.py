"""The AbstractJobObject: the recursive job graph.

Paper section 5.3: "The class AbstractJobObject contains the directed
acyclic job graph representing the job components (AbstractTaskObject and
AbstractJobObjects) together with their dependencies and information
about the destination site (Vsite), the user, site specific security, and
the user account group.  The recursive structure of the AJO allows for
the AJO to contain sub-AJOs (corresponding to job groups in a UNICORE
job) which are intended for other execution systems."

Dependencies connect children *at the same level of the job tree* and may
be "augmented by the names of the files to be transferred from one to the
other" (section 5.7); the NJS then "guarantees that the specified data
sets created by the predecessor are available to the successor".
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.ajo.actions import AbstractAction
from repro.ajo.errors import ValidationError
from repro.ajo.tasks import AbstractTaskObject

__all__ = ["AbstractJobObject", "Dependency"]


@dataclass(frozen=True, slots=True)
class Dependency:
    """A sequencing edge between two sibling actions, with optional files.

    ``files`` names the datasets the predecessor produces that must be
    made available to the successor before it may start.
    """

    predecessor_id: str
    successor_id: str
    files: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.predecessor_id == self.successor_id:
            raise ValidationError(
                f"action {self.predecessor_id} cannot depend on itself"
            )


class AbstractJobObject(AbstractAction):
    """A job group: DAG of tasks and sub-AJOs bound for one Vsite.

    Parameters
    ----------
    name:
        Job (group) name shown in the JMC.
    vsite:
        Destination virtual site for the directly contained tasks.
    usite:
        Destination UNICORE site; sub-AJOs with a different ``usite`` are
        forwarded NJS-to-NJS.
    user_dn:
        The user's certificate DN (the unique UNICORE identification).
    account_group:
        The user account group to charge.
    site_security:
        Opaque site-specific security token (smart card / DCE, section 4.2).
    """

    type_tag = "ajo"

    def __init__(
        self,
        name: str,
        vsite: str = "",
        usite: str = "",
        user_dn: str = "",
        account_group: str = "",
        site_security: str = "",
        action_id: str | None = None,
    ) -> None:
        super().__init__(name, action_id=action_id)
        self.vsite = vsite
        self.usite = usite
        self.user_dn = user_dn
        self.account_group = account_group
        self.site_security = site_security
        self._children: dict[str, AbstractAction] = {}
        self._dependencies: list[Dependency] = []
        #: What :attr:`children` / :attr:`dependencies` hand out: one
        #: tuple each, dropped when a member is added.
        self._children_view: tuple[AbstractAction, ...] | None = ()
        self._dependencies_view: tuple[Dependency, ...] | None = ()

    # -- construction ---------------------------------------------------------
    def add(self, action: AbstractAction) -> AbstractAction:
        """Add a child task or sub-AJO; returns it for chaining."""
        if not isinstance(action, (AbstractTaskObject, AbstractJobObject)):
            raise ValidationError(
                f"job graph children must be tasks or job groups, got "
                f"{type(action).__name__}"
            )
        if action.id in self._children:
            raise ValidationError(f"duplicate child id {action.id}")
        if action is self:
            raise ValidationError("a job group cannot contain itself")
        self._children[action.id] = action
        self._children_view = None
        return action

    def add_dependency(
        self,
        predecessor: AbstractAction | str,
        successor: AbstractAction | str,
        files: typing.Iterable[str] = (),
    ) -> Dependency:
        """Sequence ``successor`` after ``predecessor`` (both children).

        ``files`` are the predecessor's output datasets the NJS must make
        available to the successor (section 5.7).
        """
        pred_id = predecessor.id if isinstance(predecessor, AbstractAction) else predecessor
        succ_id = successor.id if isinstance(successor, AbstractAction) else successor
        for ref, role in ((pred_id, "predecessor"), (succ_id, "successor")):
            if ref not in self._children:
                raise ValidationError(
                    f"dependency {role} {ref!r} is not a child of {self.id}"
                )
        dep = Dependency(pred_id, succ_id, tuple(files))
        self._dependencies.append(dep)
        self._dependencies_view = None
        return dep

    # -- structure access -------------------------------------------------------
    @property
    def children(self) -> tuple[AbstractAction, ...]:
        """Direct children in insertion order."""
        view = self._children_view
        if view is None:
            view = self._children_view = tuple(self._children.values())
        return view

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        view = self._dependencies_view
        if view is None:
            view = self._dependencies_view = tuple(self._dependencies)
        return view

    def child(self, action_id: str) -> AbstractAction:
        try:
            return self._children[action_id]
        except KeyError:
            raise ValidationError(f"{self.id} has no child {action_id!r}") from None

    def sub_jobs(self) -> "list[AbstractJobObject]":
        """Direct sub-AJOs (job groups)."""
        return [c for c in self.children if isinstance(c, AbstractJobObject)]

    def tasks(self) -> list[AbstractTaskObject]:
        """Direct tasks (not descending into sub-AJOs)."""
        return [c for c in self.children if isinstance(c, AbstractTaskObject)]

    def walk(self) -> typing.Iterator[AbstractAction]:
        """Depth-first traversal of the whole tree, self included."""
        yield self
        for child in self.children:
            if isinstance(child, AbstractJobObject):
                yield from child.walk()
            else:
                yield child

    def total_actions(self) -> int:
        """Number of actions in the whole tree (job groups included)."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Nesting depth: 1 for a flat job, +1 per level of sub-AJOs."""
        subs = self.sub_jobs()
        return 1 + (max((s.depth() for s in subs), default=0))

    # -- serialization -----------------------------------------------------------
    def to_payload(self) -> dict[str, typing.Any]:
        payload = super().to_payload()
        payload.update(
            vsite=self.vsite,
            usite=self.usite,
            user_dn=self.user_dn,
            account_group=self.account_group,
            site_security=self.site_security,
            # children/dependencies are appended by the codec (recursion).
        )
        return payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractJobObject):
            return NotImplemented
        return (
            self.to_payload() == other.to_payload()
            and self.children == other.children
            and self._dependencies == other._dependencies
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.id))
