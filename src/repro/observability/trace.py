"""The assembled per-job trace: span tree, rendering, JSON export."""

from __future__ import annotations

import typing

from repro.observability.span import Span

__all__ = ["Trace"]


class Trace:
    """All spans of one trace, ordered causally (start time, then the
    sequence number the span id was minted from).

    Spans whose parent is missing from the trace (e.g. the parent lived
    in another process that never recorded) are treated as roots, so a
    partial trace still renders.
    """

    def __init__(self, trace_id: str, spans: typing.Sequence[Span]) -> None:
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s.seq))

    def __len__(self) -> int:
        return len(self.spans)

    # -- queries -------------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        """All spans with this name, in causal order."""
        return [s for s in self.spans if s.name == name]

    def first(self, name: str) -> Span | None:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def total(self, name: str) -> float:
        """Summed duration of every finished span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    @property
    def names(self) -> set[str]:
        return {s.name for s in self.spans}

    @property
    def tiers(self) -> set[str]:
        return {s.tier for s in self.spans if s.tier}

    @property
    def duration(self) -> float:
        """Wall span of the whole trace (first start to last end)."""
        if not self.spans:
            return 0.0
        start = min(s.start for s in self.spans)
        end = max((s.end for s in self.spans if s.end is not None), default=start)
        return end - start

    # -- tree ----------------------------------------------------------------
    def tree(self) -> list[tuple[Span, list]]:
        """Nested ``(span, children)`` pairs for every root span."""
        seqs = {s.seq for s in self.spans}
        children: dict[int, list[Span]] = {}
        roots: list[Span] = []
        for span in self.spans:
            if isinstance(span.parent, int) and span.parent in seqs:
                children.setdefault(span.parent, []).append(span)
            else:
                roots.append(span)

        def build(span: Span) -> tuple[Span, list]:
            return (span, [build(c) for c in children.get(span.seq, [])])

        return [build(r) for r in roots]

    def render(self) -> str:
        """The ``repro trace`` display: an indented, timed span tree."""
        lines = [
            f"trace {self.trace_id}: {len(self.spans)} spans, "
            f"tiers {{{', '.join(sorted(self.tiers))}}}, "
            f"{self.duration:.3f}s end to end"
        ]

        def width(nodes: list, depth: int) -> int:
            w = 0
            for span, kids in nodes:
                w = max(w, depth * 2 + len(span.name), width(kids, depth + 1))
            return w

        tree = self.tree()
        name_w = max(width(tree, 0), 16)

        def emit(nodes: list, depth: int) -> None:
            for span, kids in nodes:
                label = " " * (depth * 2) + span.name
                status = "" if span.status == "ok" else f"  !{span.status}: {span.error}"
                open_mark = "" if span.finished else "  [open]"
                lines.append(
                    f"  {label:<{name_w}}  [{span.tier or '-':>6}]"
                    f"  t={span.start:>12.3f}  +{span.duration:>10.3f}s"
                    f"{open_mark}{status}"
                )
                emit(kids, depth + 1)

        emit(tree, 0)
        return "\n".join(lines)

    # -- export --------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-ready dict (the benchmark export format)."""
        return {
            "trace_id": self.trace_id,
            "span_count": len(self.spans),
            "tiers": sorted(self.tiers),
            "duration_s": self.duration,
            "spans": [s.to_dict() for s in self.spans],
        }

    def __repr__(self) -> str:
        return f"<Trace {self.trace_id} spans={len(self.spans)}>"
