"""Per-job timelines: what happened when, across all tiers and sites.

A view of the job's trace (``tracer.trace(handle.trace_id)``): every
queue wait, execution and file movement is a span some tier recorded, a
forwarded group's included, so the rows need no NJS, outcome tree or
batch ledger to be rebuilt from.  Rendered as a text Gantt chart, this is
the operational "where did my job spend its time" view the E1 experiment
aggregates (:class:`repro.grid.metrics.TierTimes` reads the same spans).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability import Trace

__all__ = ["TimelineEntry", "job_timeline", "render_gantt"]

#: Spans that move a file; their ``task`` attribute is the row's label.
_FILE_SPANS = frozenset({"njs.import", "njs.export", "njs.transfer"})


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    """One span in a job's life."""

    label: str
    kind: str  # "task" | "file"
    start: float
    end: float
    status: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def job_timeline(trace: Trace) -> list[TimelineEntry]:
    """Chronological rows of every finished batch and file span of a job.

    A task that went through a batch tier has two rows, queue wait and
    execution, at whichever site ran it.
    """
    entries: list[TimelineEntry] = []
    for span in trace.spans:
        if span.end is None:
            continue
        attrs = span.attributes
        status = "successful" if span.status == "ok" else "failed"
        if span.name == "batch.wait":
            label, kind, status = f"{attrs['job']} [queued]", "task", "queued"
        elif span.name == "batch.execute":
            label, kind = f"{attrs['job']} [run@{attrs['machine']}]", "task"
        elif span.name in _FILE_SPANS:
            label, kind = str(attrs["task"]), "file"
        else:
            continue
        entries.append(TimelineEntry(label, kind, span.start, span.end, status))
    entries.sort(key=lambda e: (e.start, e.end, e.label))
    return entries


def render_gantt(entries: list[TimelineEntry], width: int = 60) -> str:
    """A text Gantt chart of the timeline."""
    if not entries:
        return "(no timed entries)"
    t0 = min(e.start for e in entries)
    t1 = max(e.end for e in entries)
    span = max(t1 - t0, 1e-9)
    label_w = max(len(e.label) for e in entries)
    lines = [
        f"{'':{label_w}}  t={t0:.1f}s {'.' * (width - 16)} t={t1:.1f}s"
    ]
    for e in entries:
        lo = int((e.start - t0) / span * (width - 1))
        hi = max(lo + 1, int(round((e.end - t0) / span * (width - 1))))
        bar = " " * lo + "#" * (hi - lo)
        lines.append(
            f"{e.label:{label_w}}  |{bar:<{width}}| {e.duration:9.1f}s "
            f"{e.status}"
        )
    return "\n".join(lines)
