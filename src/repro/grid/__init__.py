"""Grid runtime: assembling and driving multi-site UNICORE deployments.

- :mod:`repro.grid.build` — construct grids (including the six-site
  German deployment of paper section 5.7), users, browsers;
- :mod:`repro.grid.workloads` — synthetic job and local-load generators;
- :mod:`repro.grid.metrics`, :mod:`repro.grid.timeline` — one job's tier
  times and Gantt rows, both read from its trace.
"""

from repro.grid.build import Grid, GridUser, build_german_grid, build_grid
from repro.grid.snapshot import GridSnapshot
from repro.grid.workloads import LocalLoadGenerator, WorkloadProfile, synth_job
from repro.grid.metrics import TierTimes
from repro.grid.figures import figure1, figure2
from repro.grid.timeline import job_timeline, render_gantt

__all__ = [
    "Grid",
    "GridSnapshot",
    "GridUser",
    "LocalLoadGenerator",
    "TierTimes",
    "WorkloadProfile",
    "build_german_grid",
    "build_grid",
    "figure1",
    "figure2",
    "job_timeline",
    "render_gantt",
    "synth_job",
]
