"""Table 2: dataset summary — logs, jobs, files, node-hours."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.store.recordstore import RecordStore
from repro.units import format_count


@dataclass(frozen=True)
class DatasetSummary:
    """One platform's row of Table 2 (raw counts at store scale plus the
    full-year extrapolation)."""

    platform: str
    scale: float
    logs: int
    jobs: int
    files: int
    node_hours: float
    #: Min/max Darshan logs per job (the paper quotes 1-34,341 / 1-9,999).
    logs_per_job_min: int
    logs_per_job_max: int

    @property
    def logs_scaled(self) -> float:
        return self.logs / self.scale

    @property
    def jobs_scaled(self) -> float:
        return self.jobs / self.scale

    @property
    def files_scaled(self) -> float:
        return self.files / self.scale

    @property
    def node_hours_scaled(self) -> float:
        return self.node_hours / self.scale

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                format_count(self.logs_scaled),
                format_count(self.jobs_scaled),
                format_count(self.files_scaled),
                format_count(self.node_hours_scaled),
                f"{self.logs_per_job_min}-{format_count(self.logs_per_job_max, precision=0)}",
            ]
        ]


def dataset_summary(store: RecordStore) -> DatasetSummary:
    """Compute Table 2 for one platform's store.

    Files are the paper's unit: unique (path, log) pairs, i.e. rows from
    POSIX/STDIO (MPI-IO files are counted once through their POSIX shadow
    — §3.1 accounting).
    """
    ctx = store.analysis()
    return ctx.cached(("result", "dataset_summary"), lambda: _compute(ctx))


def _compute(ctx: AnalysisContext) -> DatasetSummary:
    store = ctx.store
    nfiles = int(ctx.mask("unique").sum())
    jobs = store.jobs
    node_hours = float(np.sum(jobs["nnodes"].astype(np.float64) * jobs["runtime"]) / 3600.0)
    # Count logs from the job table: jobs whose I/O never touched a
    # tracked layer still produced Darshan logs (Table 2 counts them;
    # Table 5's layer partition does not).
    nlogs = int(jobs["nlogs"].sum()) if len(jobs) else store.nlogs
    lpj_min = int(jobs["nlogs"].min()) if len(jobs) else 0
    lpj_max = int(jobs["nlogs"].max()) if len(jobs) else 0
    return DatasetSummary(
        platform=store.platform,
        scale=store.scale,
        logs=nlogs,
        jobs=len(jobs),
        files=nfiles,
        node_hours=node_hours,
        logs_per_job_min=lpj_min,
        logs_per_job_max=lpj_max,
    )
