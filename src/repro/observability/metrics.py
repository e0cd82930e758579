"""Typed counters and histograms with percentile summaries.

Pure Python on purpose: the observability layer must not drag numpy into
the hot path, and must keep working in stripped-down deployments.  The
percentile math matches numpy's default (linear interpolation between
closest ranks) so summaries agree with the benchmark tables.
"""

from __future__ import annotations

import typing

from repro.observability.registry import (
    UnregisteredName,
    known_counter,
    known_histogram,
)

__all__ = ["Counter", "Histogram", "MetricsRegistry", "percentile"]


def percentile(values: typing.Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100), linear interpolation between ranks."""
    if not values:
        return float("nan")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class Histogram:
    """A named distribution of observed values."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else float("nan")

    @property
    def max(self) -> float:
        return max(self._values) if self._values else float("nan")

    def percentile(self, p: float) -> float:
        return percentile(self._values, p)

    def summary(self, ps: typing.Sequence[float] = (50, 90, 99)) -> dict[str, float]:
        out = {"count": float(self.count), "mean": self.mean, "max": self.max}
        for p in ps:
            out[f"p{p:g}"] = self.percentile(p)
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Get-or-create registry of named counters and histograms.

    Only names in :mod:`repro.observability.registry` are minted: an
    unknown one raises :class:`UnregisteredName` the first time it is
    asked for, so a typo fails where it is made instead of reading zero.
    The two vocabularies are disjoint, so one name is never both kinds.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            if not known_counter(name):
                raise UnregisteredName("counter", name)
            metric = self._counters[name] = Counter(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            if not known_histogram(name):
                raise UnregisteredName("histogram", name)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        metric = self._counters.get(name)
        if metric is None:
            if not known_counter(name):
                raise UnregisteredName("counter", name)
            return 0.0
        return metric.value

    def snapshot(self) -> dict:
        """All metrics as plain data, for export and assertions."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }
