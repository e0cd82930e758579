"""Layer-boundary tracer: where the wall time of a repetition lands.

A ``sys.setprofile`` hook maps every Python frame to a *layer* (the
``repro`` package its file belongs to; this directory is the layer
``harness``).  Frames of the standard library, of third-party packages
and of C functions inherit the layer of their caller, so ``json.dumps``
under ``encode_value`` is charged to ``storage.codec``.

Whenever a call — or a generator/coroutine resume — crosses from one
layer into another, a span opens: layer, start, end, parent span and the
id of the harness op in flight.  It closes on return or yield.  A
layer's self time is its spans' duration minus the part their child
spans cover; ``entries`` counts the crossings into the layer.

Spans stay in memory as aggregates plus a bounded sample of raw spans.
The hook's own cost is calibrated in the same process and subtracted
per layer (see :func:`calibrate`); what remains is still several times
slower than an untraced run, which is why end-to-end metrics are never
taken from a traced repetition.
"""

from __future__ import annotations

import os
import sys
import time

HARNESS = "harness"
OTHER = "other"

#: First matching prefix of the path below ``src/repro/`` names the layer.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("simkernel/", "simkernel"),
    ("net/aio_transport.py", "net.aio_transport"),
    ("net/wire.py", "net.wire"),
    ("net/stream.py", "net.stream"),
    ("net/https.py", "net.https"),
    # The backend-neutral Transport base and the simkernel fabric.
    ("net/", "net.sim_transport"),
    ("security/", "security"),
    ("ajo/", "ajo"),
    ("resources/", "resources"),
    ("vfs/", "vfs"),
    ("batch/", "batch"),
    ("protocol/", "protocol"),
    ("server/gateway.py", "server.gateway"),
    ("server/njs/", "server.njs"),
    ("server/translation.py", "server.njs"),
    # Usite/Vsite assembly is deployment wiring, like repro.grid.
    ("server/", "grid"),
    ("client/", "client"),
    ("api/", "api"),
    ("storage/codec.py", "storage.codec"),
    ("storage/journal.py", "storage.journal"),
    ("storage/outcomes.py", "storage.journal"),
    ("storage/", "storage.backend"),
    ("analysis/", "analysis"),
    ("observability/", "observability"),
    ("grid/", "grid"),
    ("broker/", "broker"),
)

LAYERS: tuple[str, ...] = (HARNESS,) + tuple(
    dict.fromkeys(layer for _, layer in LAYER_RULES)
) + (OTHER,)

_INHERIT = -1
_OP_FLAG = 1 << 10


def layer_of_path(filename: str, package_dir: str, harness_dir: str) -> str | None:
    """The layer a source file belongs to; ``None`` means "the caller's"."""
    if filename.startswith(harness_dir):
        return HARNESS
    if not filename.startswith(package_dir):
        return None
    rel = filename[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if rel.startswith(prefix):
            return layer
    return OTHER


class LayerTracer:
    """Collects layer spans between :meth:`start` and :meth:`stop`."""

    RAW_SPANS_KEPT = 4000

    def __init__(self, package_dir: str, harness_dir: str, op_codes=()) -> None:
        self.package_dir = os.path.join(os.path.abspath(package_dir), "")
        self.harness_dir = os.path.join(os.path.abspath(harness_dir), "")
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.op_codes = frozenset(op_codes)
        n = len(LAYERS)
        self.self_s = [0.0] * n
        self.entries = [0] * n
        #: Spans this layer opened beneath itself (crossings out of it).
        self.children = [0] * n
        self.py_events = [0] * n
        self.c_events = [0] * n
        self.raw: list[tuple] = []
        self.span_count = 0
        self.started_at = 0.0
        self.wall_s = 0.0
        self.code_layer: dict = {}
        self.hook, self.unwind = self.make_hook()

    # -- classification ----------------------------------------------------
    def classify(self, code) -> int:
        layer = layer_of_path(code.co_filename, self.package_dir, self.harness_dir)
        value = _INHERIT if layer is None else self.index[layer]
        if code in self.op_codes:
            value += _OP_FLAG
        return value

    def force_layer(self, code, layer: str) -> None:
        """Pin one code object to a layer (calibration only)."""
        self.code_layer[code] = self.index[layer]

    # -- the hook ----------------------------------------------------------
    def make_hook(self):
        code_layer = self.code_layer
        classify = self.classify
        clock = time.perf_counter
        self_s, entries, children = self.self_s, self.entries, self.children
        py_events, c_events = self.py_events, self.c_events
        raw, raw_kept = self.raw, self.RAW_SPANS_KEPT
        frames: list = []   # active Python frames seen entering
        marks: list = []    # per frame: the span it opened, or None
        ops: list = []      # op ids saved beneath op-function frames
        # span = [layer, start, child_seconds, parent_span, op, id]
        span = [0, 0.0, 0.0, None, None, 0]
        op = None
        ids = 0

        def hook(frame, event, arg):
            nonlocal span, op, ids
            cur = span[0]
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    layer = code_layer[code] = classify(code)
                if layer >= _OP_FLAG:
                    layer -= _OP_FLAG
                    ops.append(op)
                    op = frame.f_locals.get("op")
                frames.append(frame)
                if layer < 0 or layer == cur:
                    py_events[cur] += 1
                    marks.append(None)
                    return
                children[cur] += 1
                ids += 1
                span = [layer, 0.0, 0.0, span, op, ids]
                marks.append(span)
                span[1] = clock()
            elif event == "return":
                if not frames or frames[-1] is not frame:
                    # Entered before tracing began, or resumed by throw():
                    # no call event was seen, so there is nothing to close.
                    return
                frames.pop()
                opened = marks.pop()
                if opened is None:
                    py_events[cur] += 1
                else:
                    now = clock()
                    duration = now - opened[1]
                    self_s[cur] += duration - opened[2]
                    entries[cur] += 1
                    span = opened[3]
                    span[2] += duration
                    if len(raw) < raw_kept:
                        raw.append((opened[5], cur, opened[1], now,
                                    span[5], opened[4]))
                if code_layer[frame.f_code] >= _OP_FLAG:
                    op = ops.pop()
            else:
                c_events[cur] += 1

        def unwind(now: float) -> tuple[float, int]:
            """Close what is still open; returns (root child seconds, spans)."""
            nonlocal span
            while span[3] is not None:
                duration = now - span[1]
                self_s[span[0]] += duration - span[2]
                entries[span[0]] += 1
                span[3][2] += duration
                span = span[3]
            # A kept frame keeps its callers' locals — a whole grid — alive.
            del frames[:], marks[:], ops[:]
            return span[2], ids

        return hook, unwind

    # -- control -----------------------------------------------------------
    def start(self) -> None:
        self.started_at = time.perf_counter()
        sys.setprofile(self.hook)

    def stop(self) -> None:
        sys.setprofile(None)
        now = time.perf_counter()
        covered, self.span_count = self.unwind(now)
        self.wall_s = now - self.started_at
        self.self_s[0] += self.wall_s - covered

    def snapshot(self) -> list[float]:
        """Per-layer self seconds so far (call from harness code, between
        ops, when no span below the harness is open)."""
        return list(self.self_s)

    # -- results -----------------------------------------------------------
    def corrected_self_s(self, cost: "HookCost", untraced_wall_s: float) -> list[float]:
        """Self seconds per layer, brought back to untraced time.

        First the calibrated cost of every hook call is taken out of the
        layer it was charged to — at most three quarters of the layer's
        raw self time, because the sandbox's speed can change between
        calibration and the traced repetition and a mis-priced hook must
        not erase a layer.  What tracing still adds after that (under a
        profile hook CPython 3.11 runs every bytecode de-specialised) is
        removed in proportion, so the layers sum to the untraced wall
        time of the same repetition.  Layers that run mostly C code
        (codec, stream) are understated by that last step, never
        overstated.
        """
        corrected = [
            max(
                seconds
                - self.py_events[i] * cost.py_event_s
                - self.c_events[i] * cost.c_event_s
                - self.entries[i] * cost.span_inside_s
                - self.children[i] * cost.span_outside_s,
                0.25 * seconds,
            )
            for i, seconds in enumerate(self.self_s)
        ]
        total = sum(corrected)
        scale = untraced_wall_s / total if total else 0.0
        return [seconds * scale for seconds in corrected]

    def report(self, cost: "HookCost", ops: float, untraced_wall_s: float) -> dict:
        corrected = self.corrected_self_s(cost, untraced_wall_s)
        total = sum(corrected) or 1.0
        t0 = self.started_at
        return {
            "ops": ops,
            "traced_wall_s": self.wall_s,
            "untraced_wall_s": untraced_wall_s,
            "spans": self.span_count,
            "hook_cost_s": cost.as_dict(),
            "layers": {
                name: {
                    "self_s": corrected[i],
                    "self_s_uncorrected": self.self_s[i],
                    "self_share": corrected[i] / total,
                    "entries": self.entries[i],
                    "python_events": self.py_events[i],
                    "c_events": self.c_events[i],
                }
                for i, name in enumerate(LAYERS)
                if self.entries[i] or self.py_events[i] or i == 0
            },
            "raw_span_fields": ["id", "layer", "start_s", "end_s", "parent", "op"],
            "raw_spans": [
                [ident, LAYERS[layer], start - t0, end - t0, parent, op]
                for ident, layer, start, end, parent, op in self.raw
            ],
        }


class HookCost:
    """Seconds the hook adds per event kind, measured by :func:`calibrate`."""

    def __init__(self, py_event_s: float, c_event_s: float,
                 span_inside_s: float, span_outside_s: float) -> None:
        self.py_event_s = py_event_s
        self.c_event_s = c_event_s
        #: Hook time that falls inside a span (charged to the entered layer).
        self.span_inside_s = span_inside_s
        #: Hook time around it (charged to the layer that made the call).
        self.span_outside_s = span_outside_s

    def as_dict(self) -> dict:
        return dict(vars(self))


def _noop() -> None:
    return None


def _noop_elsewhere() -> None:
    return None


def _loop(fn, n: int) -> float:
    started = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - started


def calibrate(package_dir: str, harness_dir: str, n: int = 20000) -> HookCost:
    """Price the hook: same loops with and without it, best of three."""

    def traced(fn) -> tuple[float, LayerTracer]:
        tracer = LayerTracer(package_dir, harness_dir)
        tracer.force_layer(_noop_elsewhere.__code__, OTHER)
        tracer.start()
        seconds = _loop(fn, n)
        tracer.stop()
        return seconds, tracer

    def c_call() -> float:
        started = time.perf_counter()
        for _ in range(n):
            len(())
        return time.perf_counter() - started

    def c_call_traced() -> float:
        tracer = LayerTracer(package_dir, harness_dir)
        tracer.start()
        seconds = c_call()
        tracer.stop()
        return seconds

    best = {"py": 1.0, "c": 1.0, "cross": 1.0, "inside": 1.0}
    for _ in range(3):
        bare = _loop(_noop, n)
        best["py"] = min(best["py"], (traced(_noop)[0] - bare) / n)
        best["c"] = min(best["c"], (c_call_traced() - c_call()) / n)
        seconds, tracer = traced(_noop_elsewhere)
        best["cross"] = min(best["cross"], (seconds - bare) / n)
        inside = tracer.self_s[tracer.index[OTHER]] / n
        best["inside"] = min(best["inside"], inside)
    pair = max(best["py"], 0.0)
    cross = max(best["cross"], 0.0)
    inside = min(max(best["inside"], 0.0), cross)
    return HookCost(
        py_event_s=pair / 2,
        c_event_s=max(best["c"], 0.0) / 2,
        span_inside_s=inside,
        span_outside_s=cross - inside,
    )
