"""The span recorder: starts, finishes, and indexes spans by trace."""

from __future__ import annotations

import contextlib
import typing
from itertools import count

from repro.observability.registry import UnregisteredName, known_span
from repro.observability.span import INERT_SPAN, Span
from repro.observability.trace import Trace

__all__ = ["Tracer"]


class Tracer:
    """Records spans against a caller-supplied clock.

    Parents are always explicit — either a :class:`Span` or a span id —
    because simulation processes interleave arbitrarily and an ambient
    "current span" stack would attribute children to the wrong parent.
    Trace ids are plain strings; a UNICORE job id can be bound to its
    trace with :meth:`bind_job` so callers that only know the job id
    (the JMC, the ``repro trace`` CLI) can still find the trace.
    """

    def __init__(self, clock: typing.Callable[[], float]) -> None:
        self.clock = clock
        self._spans: dict[str, list[Span]] = {}
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
        spans = self._spans.get(trace_id)
        if spans is None:
            raise KeyError(
                f"no trace {trace_or_job_id!r} (known jobs: "
                f"{sorted(self._jobs)})"
            )
        return Trace(trace_id, list(spans))

    def traces(self) -> list[str]:
        return sorted(self._spans)

    def clear(self) -> None:
        """Drop all recorded spans and job bindings (long-running sims)."""
        self._spans.clear()
        self._jobs.clear()

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
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_seq):05d}",
            parent_id=parent_id or None,
            start=self.clock(),
            tier=tier,
            attributes=dict(attributes),
        )
        self._spans.setdefault(trace_id, []).append(span)
        return span

    def end_span(
        self, span: Span, error: "BaseException | str | None" = None
    ) -> Span:
        """Close a span; ``error`` marks it failed."""
        if span is INERT_SPAN:
            return span
        if span.end is None:
            span.end = self.clock()
        if error is not None:
            span.status = "error"
            span.error = str(error) or type(error).__name__
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
