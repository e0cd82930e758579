"""The Network Job Supervisor.

Paper section 5.5: "The NJS consists of two main components, a java
translation server (JTS) and a system for job control and scheduling
which in the current implementation is based on Codine."

:class:`NetworkJobSupervisor` (:mod:`~repro.server.njs.supervisor`) is
what the gateway sees: consign, the control and query verbs, peer-message
dispatch, crash / restart / replay.  It wires together parts that each
own their state alone:

- ``RunTable`` (:mod:`~repro.server.njs.runtable`): the runs
  (:mod:`~repro.server.njs.jobrun`, or :mod:`~repro.server.njs.restored`
  for a finished job after a cold start), their index and change-log,
  completion watchers, the journal, the outcome store, the job-id cursor;
- ``PeerLink`` (:mod:`~repro.server.njs.peerlink`): the NJS-NJS message
  types, peer and broker routes, SSL sessions, correlation ids and
  pending replies, stream ids, hop retry;
- ``Executor`` (:mod:`~repro.server.njs.executor`): DAG sequencing,
  Uspaces, incarnation (:mod:`~repro.server.njs.incarnation`, the JTS
  role) and batch delivery through the Codine ledger
  (:mod:`~repro.server.njs.codine_layer`), imports and exports, hold /
  resume / cancel;
- ``Forwarding`` (:mod:`~repro.server.njs.forwarding`): groups handed to
  and taken in from other Usites, Uspace-to-Uspace transfers, the
  data-plane endpoint, the stashes for what arrives before its owner;
- ``BrokerAdverts`` (:mod:`~repro.server.njs.adverts`): capacity
  advertisements and steal candidates for the federation broker.
"""

from repro.server.njs.incarnation import incarnate_task
from repro.server.njs.jobrun import JobRun
from repro.server.njs.supervisor import NetworkJobSupervisor

__all__ = ["JobRun", "NetworkJobSupervisor", "incarnate_task"]
