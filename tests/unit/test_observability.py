"""Unit tests for the observability layer: spans, traces, metrics."""

import math

import numpy as np
import pytest

from repro.grid.metrics import TierTimes
from repro.observability import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    telemetry_for,
)
from repro.observability.metrics import percentile
from repro.simkernel import Simulator


class ManualClock:
    """A settable clock so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------- tracer
class TestTracer:
    def test_span_records_clock_times(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace("job")
        span = tracer.start_span("work", tid)
        clock.now = 2.5
        tracer.end_span(span)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.finished

    def test_open_span_has_zero_duration(self):
        tracer = Tracer(ManualClock())
        tid = tracer.new_trace()
        span = tracer.start_span("open", tid)
        assert not span.finished
        assert span.duration == 0.0

    def test_explicit_parent_nesting(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace("job")
        root = tracer.start_span("root", tid)
        child = tracer.start_span("child", tid, parent=root)
        grandchild = tracer.start_span("leaf", tid, parent=child.span_id)
        for s in (grandchild, child, root):
            tracer.end_span(s)

        tree = tracer.trace(tid).tree()
        assert len(tree) == 1
        top, kids = tree[0]
        assert top.name == "root"
        assert kids[0][0].name == "child"
        assert kids[0][1][0][0].name == "leaf"

    def test_end_with_error_marks_status(self):
        tracer = Tracer(ManualClock())
        tid = tracer.new_trace()
        span = tracer.start_span("fails", tid)
        tracer.end_span(span, error=ValueError("boom"))
        assert span.status == "error"
        assert "boom" in span.error

    def test_context_manager_closes_and_propagates(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace()
        with tracer.span("ok", tid) as span:
            clock.now = 1.0
        assert span.duration == 1.0
        with pytest.raises(RuntimeError):
            with tracer.span("bad", tid) as span:
                raise RuntimeError("nope")
        assert span.status == "error"

    def test_bind_job_resolves_to_trace(self):
        tracer = Tracer(ManualClock())
        tid = tracer.new_trace("job")
        tracer.bind_job("U00001@FZJ", tid)
        assert tracer.trace_id_for_job("U00001@FZJ") == tid
        assert tracer.trace("U00001@FZJ").trace_id == tid
        with pytest.raises(KeyError):
            tracer.trace("U99999@NONE")

    def test_orphan_parent_renders_as_root(self):
        tracer = Tracer(ManualClock())
        tid = tracer.new_trace()
        span = tracer.start_span("lonely", tid, parent="s-not-recorded")
        tracer.end_span(span)
        trace = tracer.trace(tid)
        assert len(trace.tree()) == 1
        assert "lonely" in trace.render()


    def test_an_empty_trace_id_opens_the_one_inert_span(self):
        """An untraced request holds the inert span: recorded nowhere,
        no span id consumed, untouched by ``set`` and ``end_span``."""
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace("job")
        first = tracer.start_span("traced", tid)

        inert = tracer.start_span("gateway.request", "", tier="server", kind="q")
        before = inert.to_dict()
        assert inert.span_id == "" and inert.finished
        assert tracer.start_span("gateway.auth", "", parent=inert) is inert
        clock.now = 3.0
        assert inert.set(job_id="U1") is inert
        assert tracer.end_span(inert, error=ValueError("boom")) is inert
        with tracer.span("njs.consign", "") as held:
            assert held is inert
        assert inert.to_dict() == before

        assert tracer.traces() == [tid]
        second = tracer.start_span("next", tid, parent=inert)
        assert (first.span_id, second.span_id) == ("s00001", "s00002")
        assert second.parent_id is None  # a child of the inert span is a root


# ----------------------------------------------------------------- trace
class TestTrace:
    def _sample(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace("job")
        a = tracer.start_span("client.submit", tid, tier="user")
        clock.now = 1.0
        b = tracer.start_span("gateway.request", tid, parent=a, tier="server")
        clock.now = 3.0
        tracer.end_span(b)
        tracer.end_span(a)
        clock.now = 4.0
        c = tracer.start_span("batch.execute", tid, parent=a, tier="batch")
        clock.now = 10.0
        tracer.end_span(c)
        return tracer.trace(tid)

    def test_totals_and_tiers(self):
        trace = self._sample()
        assert trace.total("gateway.request") == 2.0
        assert trace.total("batch.execute") == 6.0
        assert trace.tiers == {"user", "server", "batch"}
        assert trace.duration == 10.0

    def test_causal_order(self):
        trace = self._sample()
        names = [s.name for s in trace.spans]
        assert names == ["client.submit", "gateway.request", "batch.execute"]

    def test_json_round_trip(self):
        import json

        data = self._sample().to_json()
        encoded = json.loads(json.dumps(data))
        assert encoded["span_count"] == 3
        assert encoded["tiers"] == ["batch", "server", "user"]
        assert {s["name"] for s in encoded["spans"]} == {
            "client.submit", "gateway.request", "batch.execute",
        }


# ---------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(2)
        assert registry.counter_value("jobs") == 3
        assert registry.counter_value("never") == 0.0
        with pytest.raises(ValueError):
            registry.counter("jobs").inc(-1)

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("waits")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.5

    def test_percentile_matches_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert math.isnan(percentile([], 50))
        with pytest.raises(ValueError):
            percentile(values, 101)
        # numpy's default method is the reference the docstring names.
        data = [float(v * v % 37) for v in range(101)]
        for p in (0, 10, 50, 90, 99, 100):
            assert percentile(data, p) == pytest.approx(np.percentile(data, p))

    def test_name_collision_across_types(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("b").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 5.0}
        assert snap["histograms"]["b"]["count"] == 1


# -------------------------------------------------------------- telemetry
class TestTelemetryScoping:
    def test_per_sim_isolation(self):
        sim_a, sim_b = Simulator(), Simulator()
        ta, tb = telemetry_for(sim_a), telemetry_for(sim_b)
        assert ta is not tb
        assert telemetry_for(sim_a) is ta
        ta.metrics.counter("only.a").inc()
        assert tb.metrics.counter_value("only.a") == 0.0

    def test_sim_clock_drives_spans(self):
        sim = Simulator()
        telemetry = telemetry_for(sim)
        tid = telemetry.tracer.new_trace()
        span = telemetry.tracer.start_span("step", tid)

        def advance(s):
            yield s.timeout(7.0)

        sim.run(until=sim.process(advance(sim)))
        telemetry.tracer.end_span(span)
        assert span.duration == 7.0

    def test_global_default_uses_wall_clock(self):
        bundle = telemetry_for()
        assert isinstance(bundle, Telemetry)
        tid = bundle.tracer.new_trace()
        with bundle.tracer.span("wall", tid) as span:
            pass
        assert span.duration >= 0.0

    def test_reset_drops_state(self):
        sim = Simulator()
        telemetry = telemetry_for(sim)
        tid = telemetry.tracer.new_trace()
        telemetry.tracer.end_span(telemetry.tracer.start_span("x", tid))
        telemetry.metrics.counter("n").inc()
        telemetry.reset()
        assert telemetry.tracer.traces() == []
        assert telemetry.metrics.counter_value("n") == 0.0


# --------------------------------------------------------------- tiertimes
class TestTierTimesFromTrace:
    def test_span_names_map_to_columns(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tid = tracer.new_trace("job")

        def timed(name, tier, start, dur):
            clock.now = start
            span = tracer.start_span(name, tid, tier=tier)
            clock.now = start + dur
            tracer.end_span(span)

        timed("client.submit", "user", 0.0, 1.0)
        timed("gateway.auth", "server", 0.1, 0.2)
        timed("njs.incarnate", "server", 1.0, 0.5)
        timed("njs.stage", "server", 1.5, 0.25)
        timed("njs.import", "server", 1.75, 0.25)
        timed("batch.wait", "batch", 2.0, 3.0)
        timed("batch.execute", "batch", 5.0, 60.0)
        timed("client.outcome", "user", 65.0, 0.5)

        times = TierTimes.from_trace(tracer.trace(tid))
        assert times.consign_s == pytest.approx(0.8)
        assert times.gateway_auth_s == pytest.approx(0.2)
        assert times.incarnation_s == pytest.approx(0.5)
        assert times.staging_s == pytest.approx(0.5)
        assert times.batch_wait_s == pytest.approx(3.0)
        assert times.execution_s == pytest.approx(60.0)
        assert times.outcome_return_s == pytest.approx(0.5)
        assert times.handshake_s == 0.0  # no session trace given
        assert times.total() == pytest.approx(
            times.middleware_total() + 63.0
        )
