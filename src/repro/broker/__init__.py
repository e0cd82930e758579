"""The federation broker subsystem: late-binding scheduling across Usites.

The paper's section-6 outlook names a resource broker as the piece that
stops users placing jobs "at the site and on the system they know".
This package supplies both halves of that broker:

* :mod:`repro.broker.placement` — the original one-shot ranking broker
  (formerly ``repro.ext.broker``): rank every Vsite now, pick one.
* the federated tier — the :class:`TaskQueueBroker` matcher holding
  submitted-but-unbound jobs, a :class:`FairSharePolicy` with per-user
  quotas, and the :class:`FederationBroker` service: a client of the
  sites that polls each one's capacity report
  (:class:`~repro.protocol.views.CapacityView`) through its gateway, and
  runs dispatch and cross-Vsite work stealing (the owner's RECLAIM) on
  the simulation clock.

Typical use::

    from repro.broker import attach_broker, FairSharePolicy

    broker = attach_broker(grid, policy=FairSharePolicy(default_max_active=8))
    session = GridSession(grid, user, "FZJ")
    handle = session.submit(job, broker=True)   # late-bound
"""

from repro.broker.errors import BrokerError, BrokerQuotaError, NoCapacityError
from repro.broker.fairshare import FairSharePolicy
from repro.broker.matcher import BrokerJob, BrokerJobState, TaskQueueBroker
from repro.broker.placement import BrokerDecision, ResourceBroker
from repro.broker.service import FederationBroker, attach_broker

__all__ = [
    "BrokerDecision",
    "BrokerError",
    "BrokerJob",
    "BrokerJobState",
    "BrokerQuotaError",
    "FairSharePolicy",
    "FederationBroker",
    "NoCapacityError",
    "ResourceBroker",
    "TaskQueueBroker",
    "attach_broker",
]
