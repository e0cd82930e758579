"""Deprecated home of the NJS write-ahead journal.

The journal became a typed view over the pluggable persistence layer
and moved to :mod:`repro.storage.journal` (same replay semantics, now
over a durable backend table).  The historical names still resolve here
through the shared warn-once PEP 562 shim.
"""

from __future__ import annotations

from repro._compat import deprecated_module_attr

__all__ = ["JournalEntry", "JobJournal"]

__getattr__, __dir__ = deprecated_module_attr(
    __name__, globals(),
    {name: "repro.storage.journal" for name in __all__},
)
