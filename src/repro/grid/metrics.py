"""Instrumentation helpers for experiments and benchmarks."""

from __future__ import annotations

import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.observability import Trace

__all__ = ["TierTimes"]


@dataclass(slots=True)
class TierTimes:
    """Per-tier latency breakdown of one end-to-end job (experiment E1).

    Historically assembled by hand from scattered instrumentation
    attributes; now a thin view over the per-job trace — build one with
    :meth:`from_trace` and the span names do the bookkeeping.
    """

    handshake_s: float = 0.0
    applet_load_s: float = 0.0
    consign_s: float = 0.0
    gateway_auth_s: float = 0.0
    incarnation_s: float = 0.0
    batch_wait_s: float = 0.0
    execution_s: float = 0.0
    staging_s: float = 0.0
    outcome_return_s: float = 0.0

    @classmethod
    def from_trace(
        cls, trace: "Trace", session_trace: "Trace | None" = None
    ) -> "TierTimes":
        """Derive the breakdown from a job trace (plus optional session
        trace for the handshake/applet columns).

        ``consign_s`` is the client-observed consignment time minus the
        gateway authentication it contains, so the rows stay additive.
        The auth column counts the consign-path authentication (the
        first one); later requests re-authenticate inside their own
        client-side spans.
        """
        first_auth = trace.first("gateway.auth")
        gateway_auth = first_auth.duration if first_auth is not None else 0.0
        return cls(
            handshake_s=(
                session_trace.total("client.handshake") if session_trace else 0.0
            ),
            applet_load_s=(
                session_trace.total("client.applet_load")
                + session_trace.total("client.resource_pages")
                if session_trace
                else 0.0
            ),
            consign_s=max(trace.total("client.submit") - gateway_auth, 0.0),
            gateway_auth_s=gateway_auth,
            incarnation_s=trace.total("njs.incarnate"),
            batch_wait_s=trace.total("batch.wait"),
            execution_s=trace.total("batch.execute"),
            staging_s=(
                trace.total("njs.stage")
                + trace.total("njs.import")
                + trace.total("njs.export")
                + trace.total("njs.transfer")
            ),
            outcome_return_s=trace.total("client.outcome"),
        )

    def middleware_total(self) -> float:
        """Everything UNICORE adds on top of the batch system."""
        return (
            self.handshake_s
            + self.applet_load_s
            + self.consign_s
            + self.gateway_auth_s
            + self.incarnation_s
            + self.staging_s
            + self.outcome_return_s
        )

    def total(self) -> float:
        return self.middleware_total() + self.batch_wait_s + self.execution_s

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("SSL handshake + applet load", self.handshake_s + self.applet_load_s),
            ("consignment (client->NJS)", self.consign_s),
            ("gateway authentication+mapping", self.gateway_auth_s),
            ("incarnation", self.incarnation_s),
            ("file staging", self.staging_s),
            ("batch queue wait", self.batch_wait_s),
            ("execution", self.execution_s),
            ("outcome return", self.outcome_return_s),
        ]

