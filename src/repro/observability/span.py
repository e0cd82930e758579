"""The span: one timed operation inside a trace."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["INERT_SPAN", "Span"]


@dataclass(slots=True)
class Span:
    """One named, timed operation attributed to a tier.

    Spans are created and finished through a
    :class:`~repro.observability.tracer.Tracer` (which owns the clock);
    the span itself is plain data.  ``parent_id`` links spans into the
    per-trace tree; a span without a parent is a root.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    #: Which tier did the work: ``user``, ``server``, or ``batch``.
    tier: str = ""
    end: float | None = None
    error: str = ""
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def status(self) -> str:
        return "error" if self.error else "ok"

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the trace export)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tier": self.tier,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }


class _InertSpan(Span):
    """What an untraced request holds where a traced one holds a span."""

    __slots__ = ()
    #: There is one, so identity will do — and a dataclass field may
    #: default to it.
    __hash__ = object.__hash__

    def set(self, **attributes: object) -> "Span":
        return self


#: The one inert span: :meth:`Tracer.start_span` returns it for an empty
#: trace id, so callers run one path for traced and untraced requests.
#: It is recorded nowhere, ``set()`` and ``Tracer.end_span()`` leave it
#: untouched, and its ``span_id`` is ``""`` (a child of it is a root).
INERT_SPAN: Span = _InertSpan(
    name="", trace_id="", span_id="", parent_id=None, start=0.0, end=0.0
)
