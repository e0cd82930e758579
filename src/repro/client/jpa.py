"""The Job Preparation Agent.

Paper section 5.2: "The job preparation agent (JPA) to create and submit
UNICORE jobs".  Section 5.7 lists its functions: "creation of a new
UNICORE job, loading of an old UNICORE job for resubmission, and loading
and modification of an old UNICORE job", with "support for the creation
of jobs containing script tasks (to include existing batch applications)
and compile-link-execute tasks (for new applications).  At this point in
time the compile is implemented for F90."

:class:`JobBuilder` is the programmatic face of the GUI: it assembles
the AJO, checks resource requests against the destination's resource
page as the user edits (the GUI's live validation), and packages the
workstation files for consignment.
"""

from __future__ import annotations

import json
import typing

from repro.ajo.job import AbstractJobObject, Dependency
from repro.ajo.serialize import decode_ajo, encode_ajo
from repro.ajo.tasks import (
    AbstractTaskObject,
    CompileTask,
    ExecuteScriptTask,
    ExportTask,
    FileSpace,
    ImportTask,
    LinkTask,
    TransferTask,
    UserTask,
)
from repro.ajo.errors import ValidationError
from repro.analysis import AnalysisContext, AnalysisError, analyze_ajo
from repro.client.browser import UnicoreSession
from repro.observability import telemetry_for
from repro.resources.check import check_request
from repro.resources.model import ResourceRequest
from repro.vfs.body import FileBody

__all__ = ["JobPreparationAgent", "JobBuilder"]


class JobBuilder:
    """Fluent assembly of one UNICORE job (or job group)."""

    def __init__(
        self,
        agent: "JobPreparationAgent",
        name: str,
        vsite: str,
        usite: str,
        account_group: str = "",
    ) -> None:
        self._agent = agent
        self.ajo = AbstractJobObject(
            name,
            vsite=vsite,
            usite=usite,
            user_dn=agent.session.user_dn,
            account_group=account_group,
        )
        self._workstation_imports: list[str] = []

    # -- tasks ---------------------------------------------------------------
    def _check(self, task: AbstractTaskObject) -> None:
        """Live validation against the destination's resource page."""
        page = self._agent.session.resource_pages.get(self.ajo.vsite)
        if page is None:
            return  # remote Vsite: checked by the destination NJS
        result = check_request(page, task.resources, task.required_software())
        if not result.ok:
            raise ValidationError(result.summary())

    def add(self, task: AbstractTaskObject) -> AbstractTaskObject:
        self._check(task)
        self.ajo.add(task)
        if isinstance(task, ImportTask) and task.source_space == FileSpace.WORKSTATION:
            self._workstation_imports.append(task.source_path)
        return task

    def import_from_workstation(
        self, local_path: str, uspace_path: str, name: str | None = None
    ) -> ImportTask:
        return typing.cast(ImportTask, self.add(
            ImportTask(
                name or f"import {uspace_path}",
                source_path=local_path,
                destination_path=uspace_path,
                source_space=FileSpace.WORKSTATION,
            )
        ))

    def import_from_xspace(
        self, xspace_path: str, uspace_path: str, name: str | None = None
    ) -> ImportTask:
        return typing.cast(ImportTask, self.add(
            ImportTask(
                name or f"import {uspace_path}",
                source_path=xspace_path,
                destination_path=uspace_path,
                source_space=FileSpace.XSPACE,
            )
        ))

    def script_task(
        self,
        name: str,
        script: str,
        resources: ResourceRequest | None = None,
        simulated_runtime_s: float | None = None,
    ) -> ExecuteScriptTask:
        """Include an existing batch application (section 5.7)."""
        return typing.cast(ExecuteScriptTask, self.add(
            ExecuteScriptTask(
                name, script=script, resources=resources,
                simulated_runtime_s=simulated_runtime_s,
            )
        ))

    def compile_link_execute(
        self,
        name: str,
        sources: list[str],
        executable: str,
        run_resources: ResourceRequest,
        compiler: str = "f90",
        libraries: list[str] | None = None,
        arguments: list[str] | None = None,
        simulated_runtime_s: float | None = None,
    ) -> tuple[CompileTask, LinkTask, UserTask]:
        """The paper's compile-link-execute pattern for new applications.

        Creates the three tasks with the object/executable file
        dependencies already wired.
        """
        # Compile and link are serial front-end steps: one CPU, minutes.
        build_resources = ResourceRequest(cpus=1, time_s=900.0, memory_mb=256.0)
        compile_task = typing.cast(CompileTask, self.add(
            CompileTask(
                f"{name}-compile", sources=sources, compiler=compiler,
                resources=build_resources,
                simulated_runtime_s=30.0 * len(sources),
            )
        ))
        link_task = typing.cast(LinkTask, self.add(
            LinkTask(
                f"{name}-link",
                objects=compile_task.object_files(),
                output=executable,
                libraries=libraries or [],
                linker=compiler,
                resources=build_resources,
                simulated_runtime_s=20.0,
            )
        ))
        run_task = typing.cast(UserTask, self.add(
            UserTask(
                f"{name}-run",
                executable=executable,
                arguments=arguments or [],
                resources=run_resources,
                simulated_runtime_s=simulated_runtime_s,
            )
        ))
        self.depends(compile_task, link_task, files=compile_task.object_files())
        self.depends(link_task, run_task, files=[executable])
        return compile_task, link_task, run_task

    def export_to_xspace(
        self, uspace_path: str, xspace_path: str, name: str | None = None
    ) -> ExportTask:
        return typing.cast(ExportTask, self.add(
            ExportTask(
                name or f"export {uspace_path}",
                source_path=uspace_path,
                destination_path=xspace_path,
            )
        ))

    def transfer_to_usite(
        self, uspace_path: str, destination_usite: str,
        destination_path: str | None = None, name: str | None = None,
    ) -> TransferTask:
        return typing.cast(TransferTask, self.add(
            TransferTask(
                name or f"transfer {uspace_path}",
                source_path=uspace_path,
                destination_path=destination_path or uspace_path,
                destination_usite=destination_usite,
            )
        ))

    # -- structure ------------------------------------------------------------
    def sub_job(
        self, name: str, vsite: str, usite: str, account_group: str = ""
    ) -> "JobBuilder":
        """A job group destined for another system (possibly another site)."""
        sub = JobBuilder(self._agent, name, vsite, usite, account_group)
        sub.ajo.user_dn = ""  # the root carries the identity
        self.ajo.add(sub.ajo)
        # Workstation files imported by the subgroup still come from this
        # user's workstation: track on the root builder via the agent.
        self._agent._register_sub_builder(self, sub)
        return sub

    def depends(
        self, predecessor, successor, files: typing.Iterable[str] = ()
    ) -> Dependency:
        """Sequence two children, optionally naming the files to hand over."""
        pred = predecessor.ajo if isinstance(predecessor, JobBuilder) else predecessor
        succ = successor.ajo if isinstance(successor, JobBuilder) else successor
        return self.ajo.add_dependency(pred, succ, files=files)

    # -- persistence (section 5.7: load old jobs for resubmission) -----------
    def save(self) -> bytes:
        return encode_ajo(self.ajo)

    # -- consignment -------------------------------------------------------------
    def workstation_files_needed(self) -> list[str]:
        paths = list(self._workstation_imports)
        for sub in self._agent._sub_builders.get(id(self), []):
            paths.extend(sub.workstation_files_needed())
        return paths

    def submit(self):
        """Consign (``yield from`` inside a process); returns the job id."""
        return self._agent.submit(self)


class JobPreparationAgent:
    """The JPA applet: builds and consigns jobs over a session."""

    def __init__(self, session: UnicoreSession) -> None:
        self.session = session
        self._sub_builders: dict[int, list[JobBuilder]] = {}

    def _register_sub_builder(self, parent: JobBuilder, sub: JobBuilder) -> None:
        self._sub_builders.setdefault(id(parent), []).append(sub)

    def new_job(
        self, name: str, vsite: str, account_group: str = ""
    ) -> JobBuilder:
        """Create a new UNICORE job bound for a Vsite of this session's Usite."""
        return JobBuilder(
            self, name, vsite=vsite, usite=self.session.usite,
            account_group=account_group,
        )

    def load_job(self, saved: bytes) -> JobBuilder:
        """Load a previously saved job for (modification and) resubmission."""
        ajo = decode_ajo(saved)
        builder = JobBuilder(
            self, ajo.name, vsite=ajo.vsite, usite=ajo.usite,
            account_group=ajo.account_group,
        )
        builder.ajo = ajo
        builder.ajo.user_dn = self.session.user_dn
        builder._workstation_imports = [
            t.source_path
            for t in ajo.walk()
            if isinstance(t, ImportTask) and t.source_space == FileSpace.WORKSTATION
        ]
        return builder

    def submit(self, builder: JobBuilder, workstation=None):
        """Generator: validate, package workstation files, consign.

        Returns the UNICORE job id assigned by the NJS.  Raises
        :class:`~repro.analysis.AnalysisError` (a ValidationError)
        client-side when static analysis finds errors; a server-side
        rejection raises the error the server raised
        (:meth:`~repro.protocol.messages.Reply.unwrap`).
        """
        telemetry = telemetry_for(self.session.client.sim)
        # Lint before consigning: errors block here (orders of magnitude
        # cheaper than a rejection — or a failure — at the batch host),
        # warnings ride along in the metrics.  The NJS re-runs the same
        # analysis on arrival with its own knowledge of the destination.
        report = analyze_ajo(
            builder.ajo, AnalysisContext.for_session(self.session)
        )
        telemetry.metrics.counter("analysis.errors").inc(len(report.errors))
        telemetry.metrics.counter("analysis.warnings").inc(len(report.warnings))
        if not report.ok:
            telemetry.metrics.counter("analysis.jobs_rejected").inc()
            raise AnalysisError(report)
        files: dict[str, FileBody] = {}
        needed = builder.workstation_files_needed()
        if needed:
            ws = workstation
            if ws is None:
                raise ValidationError(
                    "job imports workstation files but no workstation given"
                )
            files = ws.stage_for_ajo(needed)
        from repro.protocol.consignment import encode_consignment
        from repro.protocol.datapath import (
            INLINE_FILE_MAX,
            body_sender,
            channel_sender,
            entry_for_sender,
            send_stream,
        )

        # Control/data-plane split (section 5.6): small files ride inside
        # the consignment envelope; large ones stream ahead of it in
        # chunked frames and appear in the envelope only as a manifest.
        inline: dict[str, bytes] = {}
        large: list[tuple[str, FileBody]] = []
        for path, content in files.items():
            if len(content) <= INLINE_FILE_MAX:
                inline[path] = content.data
            else:
                large.append((path, content))

        # Root of the per-job trace: everything downstream (gateway auth,
        # NJS incarnation, batch execution) hangs off this span.
        tracer = telemetry.tracer
        trace_id = tracer.new_trace("job")
        submit_span = tracer.start_span(
            "client.submit",
            trace_id,
            tier="user",
            job=builder.ajo.name,
            vsite=builder.ajo.vsite,
        )
        try:
            entries = []
            for path, content in large:
                sender = body_sender(
                    self.session.stream_ids.next(), content,
                    {"kind": "consign-file", "path": path},
                )
                yield from send_stream(
                    self.session.client.sim, sender,
                    channel_sender(self.session.channel),
                    parent_span=submit_span,
                )
                entries.append(entry_for_sender(path, sender))
            payload = encode_consignment(
                encode_ajo(builder.ajo), inline, metrics=telemetry.metrics,
                streamed=entries,
            )
            submit_span.set(
                payload_bytes=len(payload),
                streamed_bytes=sum(len(c) for _, c in large),
            )
            reply = yield from self.session.client.consign(
                payload,
                user_dn=self.session.user_dn,
                vsite=builder.ajo.vsite,
                trace_id=trace_id,
                parent_span_id=submit_span.span_id,
            )
            # A refusal is the server's own error: ServiceUnavailable (the
            # NJS is down, not the job bad) lets resilient callers fail
            # over, a broker.* fair-use refusal stays typed, and so on.
            job_id = json.loads(reply.unwrap())["job_id"]
        except BaseException as err:
            tracer.end_span(submit_span, error=err)
            raise
        tracer.end_span(submit_span)
        tracer.bind_job(job_id, trace_id)
        return job_id
