"""The Network Job Supervisor.

Paper section 5.5: "The NJS consists of two main components, a java
translation server (JTS) and a system for job control and scheduling
which in the current implementation is based on Codine."

:class:`NetworkJobSupervisor` (:mod:`~repro.server.njs.supervisor`) is
what the gateway sees: consign, the control, query and capacity verbs,
peer-message dispatch, crash / restart / replay.  It schedules nothing
beyond sequenced delivery and pushes nothing to a broker: a federation
broker pulls :meth:`~NetworkJobSupervisor.capacity` through the gateway
like any client, and its steal is the job owner's RECLAIM control, which
:meth:`~NetworkJobSupervisor.reclaim` refuses once anything of the job
has started.  It wires together parts that each own their state alone:

- ``RunTable`` (:mod:`~repro.server.njs.runtable`): the runs (a
  :mod:`~repro.server.njs.jobrun` under supervision, then the job's
  outcome row as a :mod:`~repro.server.njs.finished` run; either answers
  a status query with the reply bytes it keeps), their indexes
  (listings; the runs serving each parent job), completion watchers, the
  journal, the outcome store, the job-id cursor;
- ``PeerLink`` (:mod:`~repro.server.njs.peerlink`): the NJS-NJS message
  types, peer routes, SSL sessions, pending replies by name, stream ids,
  hop retry;
- ``Executor`` (:mod:`~repro.server.njs.executor`): DAG sequencing,
  Uspaces, incarnation (:mod:`~repro.server.njs.incarnation`, the JTS
  role) and batch delivery — the job control, each delivered task
  recorded once on its run and journaled — imports and exports, hold /
  resume / cancel;
- ``Forwarding`` (:mod:`~repro.server.njs.forwarding`): groups handed to
  and taken in from other Usites, Uspace-to-Uspace transfers, the
  data-plane endpoint, the stash for what arrives before its group.
"""

from repro.server.njs.incarnation import incarnate_task
from repro.server.njs.jobrun import JobRun
from repro.server.njs.supervisor import NetworkJobSupervisor

__all__ = ["JobRun", "NetworkJobSupervisor", "incarnate_task"]
