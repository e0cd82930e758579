"""The public facade package: one verb table, two drivers.

Every verb of the user tier (paper sections 4.1, 5.7: ``new_job``,
``submit``, ``status``, ``wait``, ``outcome``, ``cancel``, ``hold``,
``resume``, ``list_jobs``, ``fetch_file``, ``dispose``) is defined once,
in :class:`~repro.api._core.SessionCore`, as "drive this plan generator
under this process name".  The two facades differ only in the driver:

- :mod:`repro.api.sync` — the blocking :class:`GridSession`
  (``sim.run(until=process)``; simkernel transport only), a verb returns
  its result;
- :mod:`repro.api.aio` — :class:`AsyncGridSession` /
  :class:`AsyncJobHandle` (the process goes to the transport pump;
  either transport), a verb returns an awaitable of the same result.

So the facades cannot drift — the property
``tests/integration/test_transport_parity.py`` pins.
"""

from repro.api._core import JobHandle
from repro.api.aio import AsyncGridSession, AsyncJobHandle
from repro.api.sync import GridSession

__all__ = ["AsyncGridSession", "AsyncJobHandle", "GridSession", "JobHandle"]
