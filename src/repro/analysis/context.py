"""What the analyzer may assume about its surroundings.

The same passes run at three vantage points with different knowledge:

* the **JPA** knows the resource pages the gateway served for its home
  Usite and nothing about routes or queues ("supporting the user in
  creating a job suitable for the selected destination system",
  section 5.4);
* the **NJS** knows its Vsites' pages, batch dialects, and queues, plus
  which peer Usites it has routes to — and must re-check arrivals
  ("never trust the client");
* the **CLI** (``repro lint``) may know nothing at all, in which case
  only the environment-free structure and dataflow passes have teeth.

:class:`AnalysisContext` captures that vantage point; absent information
silently disables the checks that need it rather than producing noise.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:
    from repro.batch.base import QueueConfig
    from repro.resources.page import ResourcePage

__all__ = ["AnalysisContext"]


@dataclass(frozen=True)
class AnalysisContext:
    """Environment knowledge available to the feasibility pass.

    Attributes
    ----------
    pages:
        Resource page per known Vsite name.
    dialects:
        Batch-dialect key per known Vsite name (enables the incarnation
        dry-run lint).
    queues:
        Queue configurations per known Vsite name (enables the no-queue-
        admits lint).
    local_usite:
        The Usite whose groups this analyzer is responsible for; groups
        destined elsewhere are only route-checked.  Empty means "no site
        perspective" (CLI lint): every group is checked against whatever
        pages are present.
    known_usites:
        Usites reachable from here (the NJS's peer routes).  ``None``
        disables route checks entirely (client/CLI).
    require_vsites:
        Server-side strictness: a local group naming a Vsite with no
        page is an error rather than "someone else's problem".
    prestaged:
        Uspace paths guaranteed present before the root group starts
        (forward-staged files of a forwarded sub-AJO).
    """

    pages: typing.Mapping[str, "ResourcePage"] = field(default_factory=dict)
    dialects: typing.Mapping[str, str] = field(default_factory=dict)
    queues: typing.Mapping[str, "tuple[QueueConfig, ...]"] = field(default_factory=dict)
    local_usite: str = ""
    known_usites: frozenset[str] | None = None
    require_vsites: bool = False
    prestaged: frozenset[str] = frozenset()

    @classmethod
    def for_session(cls, session: typing.Any) -> "AnalysisContext":
        """The JPA's client-side vantage point over a UnicoreSession."""
        return cls(
            pages=dict(session.resource_pages),
            local_usite=session.usite,
        )

    @classmethod
    def for_njs(
        cls,
        njs: typing.Any,
        prestaged: typing.Iterable[str] | None = None,
    ) -> "AnalysisContext":
        """The NJS's server-side vantage point (pages, dialects, routes)."""
        vsites = njs.vsites
        return cls(
            pages={name: v.resource_page for name, v in vsites.items()},
            dialects={name: v.machine.dialect for name, v in vsites.items()},
            queues={
                name: tuple(v.batch.queues.values()) for name, v in vsites.items()
            },
            local_usite=njs.usite_name,
            known_usites=frozenset(njs.peers.routes),
            require_vsites=True,
            prestaged=frozenset(prestaged or ()),
        )
