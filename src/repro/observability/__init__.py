"""Observability: spans, traces, and metrics for the three-tier pipeline.

The paper's central quantitative claim is that UNICORE's middleware
overhead (gateway authentication, consignment, incarnation, staging)
stays small next to batch execution.  This package gives every layer a
uniform substrate to *prove* that on any run:

* :class:`Tracer` — a zero-dependency span recorder.  Spans carry
  explicit parents (no ambient context: simulation processes interleave,
  so implicit stacks would mis-nest), a tier label (``user`` /
  ``server`` / ``batch``), and timestamps from whatever clock the
  owning :class:`~repro.simkernel.Simulator` provides.
* :class:`MetricsRegistry` — typed counters and histograms with
  percentile summaries, pure Python.
* :class:`Trace` — the assembled per-job span tree as an AJO flows
  client → gateway → NJS → batch → outcome return, renderable as text
  (``repro trace``) or JSON (benchmark export).

Telemetry is scoped per simulation: :func:`telemetry_for` hands out one
:class:`Telemetry` bundle per :class:`~repro.simkernel.Simulator` (the
span clock is that simulator's clock), so concurrent simulations in one
process never mix, and sim-less helpers share a global wall-clock
default.
"""

from repro.observability.metrics import Counter, Histogram, MetricsRegistry
from repro.observability.span import INERT_SPAN, Span
from repro.observability.telemetry import Telemetry, telemetry_for
from repro.observability.trace import Trace
from repro.observability.tracer import Tracer

__all__ = [
    "Counter",
    "Histogram",
    "INERT_SPAN",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Trace",
    "Tracer",
    "telemetry_for",
]
