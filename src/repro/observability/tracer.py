"""The span recorder: starts, finishes, and indexes spans by trace."""

from __future__ import annotations

import contextlib
import typing
from itertools import chain, count

from repro.observability.registry import UnregisteredName, known_span
from repro.observability.span import INERT_SPAN, Span, seq_of
from repro.observability.trace import Trace

__all__ = ["Tracer", "UnknownTrace"]


class UnknownTrace(KeyError):
    """No trace by that id: never minted, or its job was disposed.  A
    contract error like ``UnregisteredName``: no wire code."""


#: A closed span as its trace's log keeps it: name, sequence number,
#: parent (its sequence number, an id minted elsewhere, or None), start,
#: end, tier, error, then the attributes as key, value, key, value, ...
Record = tuple[typing.Any, ...]


def _record(span: Span) -> Record:
    return (
        span.name, span.seq, span.parent, span.start, span.end, span.tier,
        span.error, *chain.from_iterable(span.attributes.items()),
    )


def _span(trace_id: str, record: Record) -> Span:
    name, seq, parent, start, end, tier, error, *flat = record
    return Span(
        name, trace_id, seq, parent, start, tier, end, error,
        dict(zip(flat[::2], flat[1::2])),
    )


class Tracer:
    """Records spans against a caller-supplied clock.

    Parents are always explicit — either a :class:`Span` or a span id —
    because simulation processes interleave arbitrarily and an ambient
    "current span" stack would attribute children to the wrong parent.
    Trace ids are plain strings; a UNICORE job id can be bound to its
    trace with :meth:`bind_job` so callers that only know the job id
    (the JMC, the ``repro trace`` CLI) can still find the trace.
    An open span is held by the code that will close it, and its
    trace's log holds it in its slot; :meth:`end_span` puts a flat
    :data:`Record` in that slot instead, and :meth:`trace` builds spans
    back from the records.  A job's trace goes at dispose (:meth:`forget`).
    """

    def __init__(self, clock: typing.Callable[[], float]) -> None:
        self.clock = clock
        self._spans: dict[str, list[Span | Record]] = {}
        self._jobs: dict[str, str] = {}
        self._trace_seq = count(1)
        self._span_seq = count(1)

    # -- traces --------------------------------------------------------------
    def new_trace(self, kind: str = "trace") -> str:
        """Mint a fresh trace id."""
        trace_id = f"{kind}-{next(self._trace_seq):04d}"
        self._spans[trace_id] = []
        return trace_id

    def bind_job(self, job_id: str, trace_id: str) -> None:
        """Alias a UNICORE job id to its trace."""
        self._jobs[job_id] = trace_id

    def trace_id_for_job(self, job_id: str) -> str | None:
        return self._jobs.get(job_id)

    def trace(self, trace_or_job_id: str) -> Trace:
        """The assembled trace; accepts a trace id or a bound job id."""
        trace_id = self._jobs.get(trace_or_job_id, trace_or_job_id)
        log = self._spans.get(trace_id)
        if log is None:
            raise UnknownTrace(trace_or_job_id)
        return Trace(trace_id, [
            entry if isinstance(entry, Span) else _span(trace_id, entry)
            for entry in log
        ])

    def traces(self) -> list[str]:
        return sorted(self._spans)

    def forget(self, job_id: str) -> None:
        """Drop a disposed job's trace and binding (no-op when unbound)."""
        trace_id = self._jobs.pop(job_id, None)
        if trace_id is not None:
            self._spans.pop(trace_id, None)

    # -- spans ---------------------------------------------------------------
    def start_span(
        self,
        name: str,
        trace_id: str,
        parent: "Span | str | None" = None,
        tier: str = "",
        **attributes: object,
    ) -> Span:
        """Open a span at the current clock time.

        An empty ``trace_id`` (an untraced request) opens nothing: the
        answer is :data:`~repro.observability.span.INERT_SPAN`.  The name
        is checked either way, so an untraced path cannot hide a typo.
        """
        if not known_span(name):
            raise UnregisteredName("span", name)
        if not trace_id:
            return INERT_SPAN
        log = self._spans.setdefault(trace_id, [])
        span = Span(
            name=name,
            trace_id=trace_id,
            seq=next(self._span_seq),
            # The parent's own int, which its record shares; the inert
            # span's 0 parents nothing.
            parent=(parent.seq or None) if isinstance(parent, Span)
            else seq_of(parent),
            start=self.clock(),
            tier=tier,
            attributes=dict(attributes),
            slot=len(log),
        )
        log.append(span)
        return span

    def end_span(
        self, span: Span, error: "BaseException | str | None" = None,
        at: float | None = None,
    ) -> Span:
        """Close a span, now or ``at`` a time already decided; ``error``
        marks it failed.  Its trace's log keeps it as a record from here:
        a later ``set`` on the span is not seen there."""
        if span is INERT_SPAN:
            return span
        if span.end is None:
            span.end = self.clock() if at is None else at
        if error is not None:
            span.error = str(error) or type(error).__name__
        log = self._spans.get(span.trace_id)
        if log is not None and 0 <= span.slot < len(log):
            entry = log[span.slot]
            # Still this span, or its record (closed again, say with an
            # error), not a slot of a trace that was forgotten since.
            if entry is span or (
                not isinstance(entry, Span) and entry[1] == span.seq
            ):
                log[span.slot] = _record(span)
        return span

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        trace_id: str,
        parent: "Span | str | None" = None,
        tier: str = "",
        **attributes: object,
    ) -> typing.Iterator[Span]:
        """Context-manager form for straight-line (non-yielding) code."""
        span = self.start_span(name, trace_id, parent=parent, tier=tier, **attributes)
        try:
            yield span
        except BaseException as err:
            self.end_span(span, error=err)
            raise
        self.end_span(span)
