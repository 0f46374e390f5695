"""Temporal I/O structure, in the spirit of Patel et al. (SC '19).

The related work observes that HPC write traffic is *bursty* while reads
are steadier, with clear diurnal and weekly facility rhythms. This module
bins a store's transfer volume over time (attributing each log's bytes to
its job's start time — the resolution Darshan offers without DXT) and
computes the standard burstiness and rhythm statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.scheduler.trace import SECONDS_PER_DAY
from repro.store.recordstore import RecordStore


@dataclass(frozen=True)
class TemporalProfile:
    """Time-binned transfer volumes and derived statistics."""

    platform: str
    bin_seconds: float
    #: Bytes per time bin for reads and writes.
    read_series: np.ndarray
    write_series: np.ndarray

    def peak_to_mean(self, direction: str) -> float:
        """Burstiness: peak-bin volume over mean-bin volume (>= 1)."""
        series = self._series(direction)
        active = series[series > 0]
        if not active.size:
            return float("nan")
        return float(series.max() / series.mean()) if series.mean() > 0 else float("nan")

    def busiest_hour(self, direction: str) -> int:
        """Hour of day with the highest average volume (0-23)."""
        series = self._series(direction)
        bins_per_day = int(round(SECONDS_PER_DAY / self.bin_seconds))
        if bins_per_day <= 0 or len(series) < bins_per_day:
            raise AnalysisError("series shorter than one day")
        days = len(series) // bins_per_day
        folded = series[: days * bins_per_day].reshape(days, bins_per_day)
        per_bin = folded.mean(axis=0)
        bin_hours = 24.0 / bins_per_day
        return int(np.argmax(per_bin) * bin_hours)

    def _series(self, direction: str) -> np.ndarray:
        if direction == "read":
            return self.read_series
        if direction == "write":
            return self.write_series
        raise AnalysisError(f"direction must be read/write, got {direction!r}")

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                direction,
                f"{self.peak_to_mean(direction):.2f}",
                str(self.busiest_hour(direction)),
            ]
            for direction in ("read", "write")
        ]


def temporal_profile(
    store: RecordStore,
    *,
    bin_seconds: float = 3600.0,
) -> TemporalProfile:
    """Bin the store's transfer volume over the trace horizon."""
    if bin_seconds <= 0:
        raise AnalysisError("bin_seconds must be positive")
    ctx = store.analysis()
    key = ("result", "temporal_profile", float(bin_seconds))
    return ctx.cached(key, lambda: _compute(ctx, bin_seconds))


def _compute(ctx: AnalysisContext, bin_seconds: float) -> TemporalProfile:
    store = ctx.store
    unique_idx = ctx.idx("unique")
    if not len(unique_idx):
        raise AnalysisError("store has no file records")
    jobs = store.jobs
    # Each file's job start, looked up by binary search over the job
    # ids in sorted order. A repeated job id takes its last row's start;
    # a file whose job is not in the table starts at 0.0.
    by_id = np.argsort(jobs["job_id"], kind="stable")
    job_ids = jobs["job_id"][by_id]
    file_jobs = ctx.gather("job_id", "unique")
    at = np.searchsorted(job_ids, file_jobs, side="right") - 1
    found = at >= 0
    found[found] = job_ids[at[found]] == file_jobs[found]
    starts = np.zeros(len(file_jobs), dtype=np.float64)
    starts[found] = jobs["start_time"][by_id][at[found]]
    horizon = float(jobs["start_time"].max() + jobs["runtime"].max())
    nbins = max(int(np.ceil(horizon / bin_seconds)), 1)
    idx = np.minimum((starts / bin_seconds).astype(np.int64), nbins - 1)
    read_series = np.bincount(
        idx,
        weights=ctx.gather("bytes_read", "unique").astype(np.float64),
        minlength=nbins,
    )
    write_series = np.bincount(
        idx,
        weights=ctx.gather("bytes_written", "unique").astype(np.float64),
        minlength=nbins,
    )
    return TemporalProfile(
        platform=store.platform,
        bin_seconds=bin_seconds,
        read_series=read_series,
        write_series=write_series,
    )
