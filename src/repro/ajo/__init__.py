"""The Abstract Job Object (AJO) — the paper's central contribution.

Paper section 5.3: "The UNICORE protocol is implemented as a Java object
called the abstract job object (AJO).  It specifies all actions to be
performed by the NJS which are grouped together in the Java class
AbstractAction."  Figure 3 gives the class hierarchy, reproduced here
one-for-one:

.. code-block:: text

    AbstractAction
    ├── AbstractJobObject            (recursive job graph + destination)
    ├── AbstractTaskObject
    │   ├── ExecuteTask
    │   │   ├── CompileTask
    │   │   ├── LinkTask
    │   │   ├── UserTask
    │   │   └── ExecuteScriptTask
    │   └── FileTask
    │       ├── ImportTask
    │       ├── ExportTask
    │       └── TransferTask
    └── AbstractService
        ├── ControlService
        ├── ListService
        └── QueryService

"A Java class Outcome is defined to contain the status of an abstract
action and the results of its execution.  Outcome contains a subclass for
each subclass of AbstractAction" — mirrored in :mod:`repro.ajo.outcome`.

The AJO is *recursive*: an AbstractJobObject contains a directed acyclic
graph of tasks and sub-AJOs destined for other execution systems, plus
the destination Vsite, the user, site-specific security information, and
the user account group.
"""

from repro.ajo.errors import (
    AJOError,
    DependencyCycleError,
    SerializationError,
    UnsafePathError,
    ValidationError,
)
from repro.ajo.status import ActionStatus
from repro.ajo.actions import AbstractAction
from repro.ajo.tasks import (
    AbstractTaskObject,
    CompileTask,
    ExecuteScriptTask,
    ExecuteTask,
    ExportTask,
    FileTask,
    ImportTask,
    LinkTask,
    TransferTask,
    UserTask,
)
from repro.ajo.services import (
    AbstractService,
    ControlService,
    ControlVerb,
    ListService,
    QueryService,
)
from repro.ajo.job import AbstractJobObject, Dependency
from repro.ajo.outcome import (
    AJOOutcome,
    FileOutcome,
    Outcome,
    ServiceOutcome,
    TaskOutcome,
    outcome_class_for,
)
from repro.ajo.dag import critical_path_length, ready_actions, topological_order
from repro.ajo.serialize import (
    decode_ajo,
    decode_outcome,
    decode_service,
    encode_ajo,
    encode_outcome,
    encode_service,
)

__all__ = [
    "AJOError",
    "AJOOutcome",
    "AbstractAction",
    "AbstractJobObject",
    "AbstractService",
    "AbstractTaskObject",
    "ActionStatus",
    "CompileTask",
    "ControlService",
    "ControlVerb",
    "Dependency",
    "DependencyCycleError",
    "ExecuteScriptTask",
    "ExecuteTask",
    "ExportTask",
    "FileOutcome",
    "FileTask",
    "ImportTask",
    "LinkTask",
    "ListService",
    "Outcome",
    "QueryService",
    "SerializationError",
    "UnsafePathError",
    "ServiceOutcome",
    "TaskOutcome",
    "TransferTask",
    "UserTask",
    "ValidationError",
    "critical_path_length",
    "decode_ajo",
    "decode_outcome",
    "decode_service",
    "encode_ajo",
    "encode_outcome",
    "encode_service",
    "outcome_class_for",
    "ready_actions",
    "topological_order",
]
