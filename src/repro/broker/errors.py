"""Stable error codes for the federation broker tier.

Same contract as the rest of the hierarchy (see ``repro.errors``): every
class carries a machine-readable ``code`` that survives the protocol
edge — the gateway copies it into ``Reply.error_code`` and
``Reply.unwrap`` raises the same class again client-side.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["BrokerError", "BrokerQuotaError", "NoCapacityError"]


class BrokerError(ReproError):
    """Base class for federation-broker failures."""

    code = "broker.error"


class BrokerQuotaError(BrokerError):
    """A submission exceeded the user's fair-share quota or concurrency cap."""

    code = "broker.quota_exceeded"


class NoCapacityError(BrokerError):
    """No advertised Vsite can ever satisfy the request."""

    code = "broker.no_capacity"
