"""The span: one timed operation inside a trace."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["INERT_SPAN", "Span", "seq_of"]


def _span_id(seq: int) -> str:
    """The span id minted from sequence number ``seq``."""
    return f"s{seq:05d}"


def seq_of(span_id: str | None) -> int | str | None:
    """A span id as the sequence number it was minted from; an id not
    minted that way (another process's, say) stays as it is."""
    if span_id and span_id[0] == "s" and span_id[1:].isdigit():
        seq = int(span_id[1:])
        if _span_id(seq) == span_id:
            return seq
    return span_id or None


@dataclass(slots=True)
class Span:
    """One named, timed operation attributed to a tier.

    Spans are created and finished through a
    :class:`~repro.observability.tracer.Tracer` (which owns the clock);
    the span itself is plain data.  ``seq`` is the number the tracer
    minted the span's id from, and ``parent`` the parent's: the
    parent's number, an id minted elsewhere, or None for a root.
    ``slot`` is the span's place in its trace's log while it is open
    (-1 for a span no log holds).
    """

    name: str
    trace_id: str
    seq: int
    parent: int | str | None
    start: float
    #: Which tier did the work: ``user``, ``server``, or ``batch``.
    tier: str = ""
    end: float | None = None
    error: str = ""
    attributes: dict[str, object] = field(default_factory=dict)
    slot: int = field(default=-1, repr=False, compare=False)

    @property
    def span_id(self) -> str:
        """``s`` and the zero-padded sequence number; ``""`` for the
        inert span."""
        return _span_id(self.seq) if self.seq else ""

    @property
    def parent_id(self) -> str | None:
        parent = self.parent
        return _span_id(parent) if isinstance(parent, int) else parent

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
    name="", trace_id="", seq=0, parent=None, start=0.0, end=0.0
)
