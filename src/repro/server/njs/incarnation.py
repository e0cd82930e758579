"""Incarnation: abstract task → concrete vendor batch job.

This is the "java translation server" role of the NJS (section 5.5):
"transform the abstract job into a Codine internal format ... translate
the abstract specifications into the local system specific nomenclature
using translation tables, submit the batch jobs to the execution system".

The produced :class:`~repro.batch.base.BatchJobSpec` is fully concrete:
a script in the destination dialect, local compiler invocations, the
local user-id from the gateway's mapping, and the *effects* the task has
on its Uspace (object files, executables, declared result files) so the
simulation materializes real data flow.
"""

from __future__ import annotations

import json

from repro.ajo.tasks import (
    CompileTask,
    ExecuteScriptTask,
    ExecuteTask,
    LinkTask,
    UserTask,
)
from repro.batch.base import BatchJobSpec, FileEffect
from repro.security.uudb import UserMapping
from repro.server.errors import IncarnationError
from repro.server.vsite import Vsite
from repro.vfs.spaces import Uspace

__all__ = [
    "incarnate_task", "select_queue", "IncarnationCache", "DEFAULT_QUEUE",
    "OBJECT_FILE_BYTES", "EXECUTABLE_BYTES", "RESULT_FILE_BYTES",
]

DEFAULT_QUEUE = "batch"


class IncarnationCache:
    """Memoizes the translation work of :func:`incarnate_task`.

    Production workloads incarnate the *same task shapes* over and over
    (section 5.7's mixed workload is a handful of templates at varying
    runtimes).  Queue selection, dialect translation, and script
    rendering depend only on the task's shape and the destination's
    dialect — never on the submitting user or the wallclock — so their
    results are cached under a ``(vsite, dialect, queue, shape)`` key.
    Per-job fields (owner, wallclock, extra outputs, workdir) are applied
    outside the cache.
    """

    __slots__ = ("_entries", "hits", "misses")

    #: Shapes held before the cache starts over.
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[str, str, tuple[FileEffect, ...]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def shape_key(task: ExecuteTask, vsite: Vsite, queue: str | None) -> tuple:
        """A hashable key identifying the translation inputs.

        ``simulated_runtime_s`` (ground truth, not part of the script)
        and the action ``id`` (unique per instance) are excluded — two
        tasks differing only there incarnate identically.
        """
        payload = task.to_payload()
        payload.pop("id", None)
        payload.pop("simulated_runtime_s", None)
        return (
            vsite.name,
            type(vsite.batch.dialect).__name__,
            queue,
            type(task).__name__,
            json.dumps(payload, sort_keys=True),
        )

    def get(self, key: tuple) -> tuple[str, str, tuple[FileEffect, ...]] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self, key: tuple, queue: str, script: str,
        effects: tuple[FileEffect, ...],
    ) -> None:
        if len(self._entries) >= self.MAX_ENTRIES:
            # Shape diversity beyond the cap means the cache is not
            # earning its memory; reset rather than track recency.
            self._entries.clear()
        self._entries[key] = (queue, script, effects)


def select_queue(vsite: Vsite, resources) -> str:
    """Pick the tightest queue whose limits admit the request.

    Real sites route jobs into size-classed queues (small/medium/long);
    the NJS must choose one the local system will accept.  Among
    admitting queues the one with the smallest (max_cpus, max_time_s)
    wins, so short jobs land in the short queues.
    """
    admitting = [
        q for q in vsite.batch.queues.values() if not q.admits(resources)
    ]
    if not admitting:
        raise IncarnationError(
            f"Vsite {vsite.name}: no queue admits cpus={resources.cpus}, "
            f"time_s={resources.time_s} "
            f"(queues: {sorted(vsite.batch.queues)})"
        )
    best = min(admitting, key=lambda q: (q.max_cpus, q.max_time_s, q.name))
    return best.name

#: Simulated sizes (bytes) of what a task leaves behind: compile / link
#: products, and a result file a dependency, export or return names.
OBJECT_FILE_BYTES = 64 * 1024
EXECUTABLE_BYTES = 512 * 1024
RESULT_FILE_BYTES = 1 << 20


def _body_for(task: ExecuteTask, vsite: Vsite) -> tuple[list[str], list[FileEffect]]:
    """Script body lines plus the files the task will create."""
    table = vsite.translation
    if isinstance(task, CompileTask):
        if not table.has_software(task.compiler):
            raise IncarnationError(
                f"Vsite {vsite.name}: no local translation for compiler "
                f"{task.compiler!r}"
            )
        compiler = table.map_software(task.compiler)
        opts = " ".join(task.options)
        lines = [
            f"{compiler} -c {opts} {src}".replace("  ", " ")
            for src in task.sources
        ]
        effects = [
            FileEffect(obj, size_bytes=OBJECT_FILE_BYTES)
            for obj in task.object_files()
        ]
        return lines, effects
    if isinstance(task, LinkTask):
        linker = table.map_software(task.linker)
        libs = " ".join(f"-l{lib}" for lib in task.libraries)
        objs = " ".join(task.objects)
        line = f"{linker} -o {task.output} {objs} {libs}".rstrip()
        return [line], [FileEffect(task.output, size_bytes=EXECUTABLE_BYTES)]
    if isinstance(task, UserTask):
        line = table.render_run(task.executable, task.arguments, task.resources.cpus)
        return [line], []
    if isinstance(task, ExecuteScriptTask):
        # Existing batch application: embedded verbatim under the local
        # interpreter (section 5.7, "script tasks").
        return [f"{task.interpreter} <<'UNICORE_EOF'",
                task.script.rstrip("\n"),
                "UNICORE_EOF"], []
    raise IncarnationError(
        f"cannot incarnate task type {type(task).__name__}"
    )


def incarnate_task(
    task: ExecuteTask,
    vsite: Vsite,
    mapping: UserMapping,
    uspace: Uspace,
    extra_outputs: tuple[FileEffect, ...] = (),
    queue: str | None = None,
    origin: str = "unicore",
    metrics=None,
    cache: IncarnationCache | None = None,
) -> BatchJobSpec:
    """Translate one abstract execute task into a vendor batch job.

    ``extra_outputs`` are result files the NJS knows the task must
    produce (from dependency-file annotations and export sources) beyond
    the task's intrinsic products.  With ``queue=None`` the tightest
    admitting local queue is selected via :func:`select_queue`.  With a
    :class:`~repro.observability.MetricsRegistry` as ``metrics``, the
    size of every produced script is recorded.  With a ``cache``, queue
    selection, translation, and script rendering are memoized by (task
    shape, dialect); per-job fields are always computed fresh.
    """
    if not isinstance(task, ExecuteTask):
        raise IncarnationError(
            f"only execute tasks become batch jobs; {type(task).__name__} "
            "is handled by the NJS itself"
        )
    key = cached = None
    if cache is not None:
        key = IncarnationCache.shape_key(task, vsite, queue)
        cached = cache.get(key)
    if cached is not None:
        queue, script, base_effects = cached
        effects = list(base_effects)
        if metrics is not None:
            metrics.counter("njs.incarnation_cache.hits").inc()
    else:
        if queue is None:
            queue = select_queue(vsite, task.resources)
        body, effects = _body_for(task, vsite)
        env = vsite.translation.map_environment(task.environment)
        env_lines = [f"export {k}={v}" for k, v in sorted(env.items())]
        script = vsite.batch.dialect.render_script(
            job_name=task.name,
            queue=queue,
            resources=task.resources,
            body_lines=env_lines + body,
        )
        if cache is not None and key is not None:
            cache.store(key, queue, script, tuple(effects))
            if metrics is not None:
                metrics.counter("njs.incarnation_cache.misses").inc()
    if metrics is not None:
        metrics.histogram("incarnation.script_bytes").observe(len(script))

    # Ground-truth runtime, scaled by the destination architecture.
    baseline = (
        task.simulated_runtime_s
        if task.simulated_runtime_s is not None
        else task.resources.time_s * 0.5
    )
    wallclock = baseline / vsite.machine.speed_factor

    known = {e.path for e in effects}
    effects.extend(e for e in extra_outputs if e.path not in known)

    return BatchJobSpec(
        name=task.name,
        owner=mapping.login,
        group=mapping.gid,
        queue=queue,
        script=script,
        resources=task.resources,
        wallclock_s=wallclock,
        effects=tuple(effects),
        stdout_text=f"{task.name}: completed on {vsite.machine.architecture}\n",
        workdir=uspace,
        origin=origin,
    )
