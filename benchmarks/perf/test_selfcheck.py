"""pytest entry for the benchmark's own lint (``pytest benchmarks/perf``)."""

from selfcheck import test_selfcheck  # noqa: F401
