"""Extensions: the paper's section 6 outlook, implemented.

The paper closes with four future directions.  The resource broker grew
into the federated :mod:`repro.broker` subsystem; two more live here:

- :mod:`repro.ext.accounting` — the "accounting functions" the broker
  combines with load information to "find the best system";
- :mod:`repro.ext.coallocation` — a best-effort sketch of synchronous
  meta-computing, demonstrating exactly why the paper postponed it: the
  site-autonomy decision leaves no reservation primitive to build on.

(An application-specific interface for a package like Ansys is a job
template, built with the JPA like any other job; application steering
requires interactive processes, which the architecture excludes by
design.)
"""

from repro.ext.accounting import AccountingLog, UsageRecord
from repro.ext.coallocation import CoAllocationResult, CoAllocator

__all__ = [
    "AccountingLog",
    "CoAllocationResult",
    "CoAllocator",
    "UsageRecord",
]
