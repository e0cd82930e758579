"""Extensions: the paper's section 6 outlook, implemented.

The paper closes with four future directions; three are buildable on the
reproduced architecture.  The resource broker grew into the federated
:mod:`repro.broker` subsystem; the rest live here:

- :mod:`repro.ext.accounting` — the "accounting functions" the broker
  combines with load information to "find the best system";
- :mod:`repro.ext.appinterfaces` — "application specific interfaces for
  standard packages like Ansys or Pamcrash";
- :mod:`repro.ext.coallocation` — a best-effort sketch of synchronous
  meta-computing, demonstrating exactly why the paper postponed it: the
  site-autonomy decision leaves no reservation primitive to build on.

(The fourth item, application steering, requires interactive processes,
which the architecture excludes by design.)
"""

from repro.ext.accounting import AccountingLog, UsageRecord
from repro.ext.appinterfaces import ApplicationTemplate, STANDARD_PACKAGES
from repro.ext.coallocation import CoAllocationResult, CoAllocator

__all__ = [
    "AccountingLog",
    "ApplicationTemplate",
    "CoAllocationResult",
    "CoAllocator",
    "STANDARD_PACKAGES",
    "UsageRecord",
]
