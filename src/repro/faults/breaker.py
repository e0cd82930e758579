"""A circuit breaker for the asynchronous protocol client.

The paper's protocol already retries lost messages; what it lacks is a
way to stop *hammering* a gateway that is plainly down.  The breaker
adds that: after ``failure_threshold`` consecutive exhausted
interactions it opens and fast-fails every call for ``cooldown_s``
simulated seconds, then lets a single probe through (half-open) and
closes again once the probe succeeds.

State transitions are recorded (with simulated timestamps) for tests
and counted in the metrics registry.
"""

from __future__ import annotations

from repro.faults.errors import CircuitOpenError
from repro.observability import telemetry_for
from repro.simkernel import Simulator

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe state."""

    def __init__(
        self,
        sim: Simulator,
        failure_threshold: int = 3,
        cooldown_s: float = 90.0,
        name: str = "client",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self.state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        #: ``(sim_time, new_state)`` history, oldest first.
        self.transitions: list[tuple[float, str]] = []
        #: Calls fast-failed while open.
        self.rejections = 0

    # -- the three touch points the client calls ----------------------------
    def check(self) -> None:
        """Gate a call: raises :class:`CircuitOpenError` while open."""
        if self.state == OPEN:
            if self.sim.now - self._opened_at >= self.cooldown_s:
                self._transition(HALF_OPEN)
            else:
                self.rejections += 1
                telemetry_for(self.sim).metrics.counter(
                    "resilience.breaker_rejections"
                ).inc()
                remaining = self.cooldown_s - (self.sim.now - self._opened_at)
                raise CircuitOpenError(
                    f"circuit {self.name!r} open for another {remaining:.0f}s"
                )

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._transition(CLOSED)  # the single probe came back
        else:
            self._failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: the service is still down.
            self._transition(OPEN)
            return
        self._failures += 1
        if self.state == CLOSED and self._failures >= self.failure_threshold:
            self._transition(OPEN)

    # -- internals ----------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        self.state = new_state
        self._failures = 0
        if new_state == OPEN:
            self._opened_at = self.sim.now
        self.transitions.append((self.sim.now, new_state))
        telemetry_for(self.sim).metrics.counter(
            f"resilience.breaker_{new_state}"
        ).inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.name} {self.state}>"
