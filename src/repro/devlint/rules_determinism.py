"""RD1xx — determinism rules.

The reproduction's crown-jewel invariant is byte-identical replay: the
same seed must produce the same events, snapshots (PR 8) must thaw
byte-identically, and seeded fault plans (PR 2) must perturb nothing
they did not perturb last run.  Everything here guards the ways that
invariant silently rots:

* ``RD101`` — wall-clock reads (``time.time``/``time.monotonic``/
  ``datetime.now``): simulation code must read ``sim.now``.
* ``RD102`` — unseeded randomness (module-level ``random.*``,
  ``random.Random()``/``default_rng()`` with no seed): every RNG must
  derive from the simulation seed (:mod:`repro.simkernel.rng`).
* ``RD103`` — OS entropy (``os.urandom``, ``uuid.uuid1/uuid4``,
  ``secrets.*``): never reproducible, never allowed.
* ``RD104`` — unsorted directory listings (``os.listdir``/``scandir``/
  ``glob``/``iterdir``): filesystem order is platform noise; wrap the
  call in ``sorted(...)``.
* ``RD105`` — iterating a ``set``/``frozenset`` expression in a
  ``for``/comprehension: set order is salted per process and escapes
  into observable event order; iterate ``sorted(...)`` instead.
* ``RD106`` — ``id()``-based ordering (``key=id`` or ``id()`` inside
  an ordering comparison): CPython addresses are not stable across
  runs.

Allowlisted by path: the asyncio transport (real sockets need real
clocks for stall guards) and the security layer's seeded-RNG number
theory (it *consumes* callers' seeded ``random.Random`` instances and
may legitimately name the module in annotations).  Deliberate
exceptions elsewhere carry an inline ``# devlint: ignore[RD1xx]`` with
the justification in view.
"""

from __future__ import annotations

import ast
import typing

from repro.devlint.engine import FileRule, SourceFile

__all__ = ["determinism_rules"]

#: Paths where wall clocks and OS randomness are the design, not a leak.
_REALTIME_PATHS = (
    "src/repro/net/aio_transport.py",
)
_SEEDED_RNG_PATHS = (
    "src/repro/security/",
)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``time.monotonic``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _calls(tree: ast.Module) -> typing.Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


class WallClockRule(FileRule):
    """RD101: wall-clock reads in simulation code."""

    code = "RD101"
    allowlist = _REALTIME_PATHS

    _CLOCKS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    })
    #: Suffixes catching ``datetime.datetime.now()`` and the
    #: ``from datetime import datetime; datetime.now()`` spelling alike.
    _DT_SUFFIXES = (
        "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    )

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        # Checking attribute *references* (not just calls) also catches
        # clock injection: ``Tracer(clock=time.monotonic)`` hands the
        # wall clock to a component without ever calling it here.  A
        # call site reports once, through its ``func`` attribute.
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name in self._CLOCKS:
                    yield node.lineno, (
                        f"wall-clock source {name} in simulation code; read "
                        "the simulator clock (sim.now) instead"
                    )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if any(
                    name == s or name.endswith("." + s)
                    for s in self._DT_SUFFIXES
                ):
                    yield node.lineno, (
                        f"wall-clock call {name}() in simulation code; "
                        "timestamps must derive from the simulator clock"
                    )


class UnseededRandomRule(FileRule):
    """RD102: randomness not derived from the simulation seed."""

    code = "RD102"
    allowlist = _REALTIME_PATHS + _SEEDED_RNG_PATHS

    _MODULE_FNS = frozenset({
        "random.random", "random.randint", "random.randrange",
        "random.choice", "random.choices", "random.shuffle", "random.sample",
        "random.uniform", "random.gauss", "random.expovariate",
        "random.getrandbits", "random.seed", "random.betavariate",
    })

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        for call in _calls(f.tree):
            name = _dotted(call.func)
            if name in self._MODULE_FNS:
                yield call.lineno, (
                    f"{name}() draws from the process-global RNG; derive a "
                    "generator from the simulation seed "
                    "(repro.simkernel.rng.derive_rng)"
                )
            elif (
                name.endswith(("random.Random", "random.default_rng"))
                or name == "default_rng"
            ) and not call.args and not call.keywords:
                yield call.lineno, (
                    f"{name}() without a seed is entropy-seeded; pass a seed "
                    "derived from the simulation seed"
                )


class OSEntropyRule(FileRule):
    """RD103: operating-system entropy sources."""

    code = "RD103"
    allowlist = _REALTIME_PATHS

    _SOURCES = frozenset({
        "os.urandom", "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbits", "secrets.randbelow", "secrets.choice",
    })

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        for call in _calls(f.tree):
            name = _dotted(call.func)
            if name in self._SOURCES:
                yield call.lineno, (
                    f"{name}() reads OS entropy and is never reproducible; "
                    "derive identifiers/keys from seeded state"
                )


class UnsortedListingRule(FileRule):
    """RD104: directory listings consumed in filesystem order."""

    code = "RD104"
    allowlist = _REALTIME_PATHS

    _LISTINGS = frozenset({
        "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
    })
    _METHODS = frozenset({"iterdir", "rglob"})

    def _is_listing(self, call: ast.Call) -> str | None:
        name = _dotted(call.func)
        if name in self._LISTINGS:
            return name
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self._METHODS
        ):
            return call.func.attr
        return None

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        ordered: set[ast.Call] = set()
        for call in _calls(f.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "sorted":
                for arg in call.args:
                    if isinstance(arg, ast.Call):
                        ordered.add(arg)
        for call in _calls(f.tree):
            if call in ordered:
                continue
            name = self._is_listing(call)
            if name is not None:
                yield call.lineno, (
                    f"{name}() yields entries in filesystem order, which "
                    "varies by platform; wrap the call in sorted(...)"
                )


class SetIterationRule(FileRule):
    """RD105: set iteration order escaping into observable order."""

    code = "RD105"

    _SET_CALLS = frozenset({"set", "frozenset"})

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in self._SET_CALLS:
                return True
            # Set algebra on calls: set(a) | set(b) handled below.
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        iterated: list[ast.expr] = []
        for node in ast.walk(f.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterated.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iterated.extend(gen.iter for gen in node.generators)
        for expr in iterated:
            if self._is_set_expr(expr):
                yield expr.lineno, (
                    "iterating a set expression leaks the per-process hash "
                    "order into event order; iterate sorted(...) instead"
                )


class IdOrderingRule(FileRule):
    """RD106: object identity used as an ordering key."""

    code = "RD106"

    _ORDERING_FNS = frozenset({"sorted", "min", "max"})

    def check(self, f: SourceFile) -> typing.Iterator[tuple[int, str]]:
        for call in _calls(f.tree):
            name = _dotted(call.func)
            is_ordering = (
                name in self._ORDERING_FNS
                or (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "sort")
            )
            if not is_ordering:
                continue
            for kw in call.keywords:
                if (
                    kw.arg == "key"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == "id"
                ):
                    yield call.lineno, (
                        "ordering by id() depends on allocation addresses, "
                        "which differ run to run; order by a stable field"
                    )
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                continue
            for side in [node.left, *node.comparators]:
                if (
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Name)
                    and side.func.id == "id"
                ):
                    yield node.lineno, (
                        "comparing id() values imposes an address-based "
                        "order; compare a stable field instead"
                    )


def determinism_rules() -> list[FileRule]:
    return [
        WallClockRule(), UnseededRandomRule(), OSEntropyRule(),
        UnsortedListingRule(), SetIterationRule(), IdOrderingRule(),
    ]
