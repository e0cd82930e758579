"""Batch subsystems: the third tier of the architecture.

Paper section 4.3: "The third tier contains the destination systems with
their batch systems and data storage."  UNICORE's production systems were
Cray T3E, Fujitsu VPP/700, IBM SP-2, and NEC SX-4 (section 5.7), each
running its vendor batch system; the NJS's translation tables emit job
scripts in the local dialect and submit them like any other batch job
(site autonomy, section 5.5).

This package simulates those systems as discrete-event queueing machines:

- :mod:`repro.batch.base` — job specs, records, queues, and the
  :class:`BatchSystem` engine (submission, scheduling passes, execution,
  output collection);
- :mod:`repro.batch.scheduling` — FCFS and EASY-backfill policies;
- :mod:`repro.batch.dialects` — the vendor script dialects (NQS,
  LoadLeveler, VPP, and Codine);
- :mod:`repro.batch.machines` — the machine catalogue of the six German
  UNICORE sites.
"""

from repro.batch.errors import (
    BatchError,
    JobRejectedError,
    UnknownJobError,
    UnknownQueueError,
)
from repro.batch.base import (
    BatchJobRecord,
    BatchJobSpec,
    BatchState,
    BatchSystem,
    FileEffect,
    QueueConfig,
)
from repro.batch.scheduling import BackfillScheduler, FCFSScheduler
from repro.batch.dialects import (
    CodineDialect,
    Dialect,
    LoadLevelerDialect,
    NQSDialect,
    VPPDialect,
    dialect_for,
)
from repro.batch.machines import MachineConfig, PAPER_MACHINES, machine

__all__ = [
    "BackfillScheduler",
    "BatchError",
    "BatchJobRecord",
    "BatchJobSpec",
    "BatchState",
    "BatchSystem",
    "CodineDialect",
    "Dialect",
    "FCFSScheduler",
    "FileEffect",
    "JobRejectedError",
    "LoadLevelerDialect",
    "MachineConfig",
    "NQSDialect",
    "PAPER_MACHINES",
    "QueueConfig",
    "UnknownJobError",
    "UnknownQueueError",
    "VPPDialect",
    "dialect_for",
    "machine",
]
