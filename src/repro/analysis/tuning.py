"""Do users tune their I/O across successive executions? (§5 future work)

The paper closes with: *"Another focus of this future study will be how
many users tune their I/O in subsequent application executions."* This
module implements that study over a store: for each user with enough
jobs, order the jobs in time, extract per-job tuning signals — mean POSIX
request size and MPI-IO adoption — and classify the user's trajectory as
improving, flat, or regressing by rank correlation against time.

Run against the synthetic population it returns "flat" for almost
everyone, which is precisely the paper's suspicion about production users
(optimizations "available for quite some time" going unused); the tests
also verify the detector fires on hand-built stores with real trends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore


@dataclass(frozen=True)
class UserTrajectory:
    """One user's tuning signal over their job sequence."""

    user_id: int
    njobs: int
    #: Per-job mean POSIX request size, time-ordered.
    request_sizes: np.ndarray
    #: Per-job MPI-IO share of interface rows, time-ordered.
    mpiio_shares: np.ndarray
    #: Spearman rank correlation of request size against job order.
    trend: float

    @property
    def classification(self) -> str:
        if not np.isfinite(self.trend):
            return "flat"
        if self.trend > 0.35:
            return "improving"
        if self.trend < -0.35:
            return "regressing"
        return "flat"


@dataclass(frozen=True)
class TuningReport:
    platform: str
    trajectories: tuple[UserTrajectory, ...]

    def fraction(self, classification: str) -> float:
        if not self.trajectories:
            return float("nan")
        hits = sum(
            1 for t in self.trajectories if t.classification == classification
        )
        return hits / len(self.trajectories)

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                str(len(self.trajectories)),
                f"{100 * self.fraction('improving'):.1f}%",
                f"{100 * self.fraction('flat'):.1f}%",
                f"{100 * self.fraction('regressing'):.1f}%",
            ]
        ]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (scipy-free, ties by average rank)."""
    if len(x) < 3 or np.all(y == y[0]):
        return float("nan")

    def ranks(a: np.ndarray) -> np.ndarray:
        order = np.argsort(a, kind="stable")
        r = np.empty(len(a), dtype=np.float64)
        r[order] = np.arange(1, len(a) + 1)
        # average ties
        for v in np.unique(a):
            mask = a == v
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def _isin_sorted(ids: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """``np.isin(ids, pool)`` by a sorted probe.

    Sorts ``ids``, binary-searches them into the sorted ``pool``,
    compares, and scatters the answers back to ``ids``' order. Probing
    in sorted order keeps the searches' memory access sequential: on
    summit's 0.53M POSIX record ids against 0.1M MPI-IO ones (2-core
    x86 box) it took 35-50 ms against 61-69 ms for ``np.isin``, and
    probing the unsorted ids 90-99 ms.
    """
    found = np.zeros(len(ids), dtype=bool)
    if not len(ids) or not len(pool):
        return found
    pool = np.sort(pool)
    order = np.argsort(ids)
    probe = ids[order]
    at = np.minimum(np.searchsorted(pool, probe), len(pool) - 1)
    found[order] = pool[at] == probe
    return found


def tuning_report(
    store: RecordStore,
    *,
    min_jobs: int = 5,
) -> TuningReport:
    """Classify every qualifying user's tuning trajectory."""
    if min_jobs < 3:
        raise AnalysisError("min_jobs must be at least 3 for a trend")
    ctx = store.analysis()
    key = ("result", "tuning_report", min_jobs)
    return ctx.cached(key, lambda: _compute(ctx, min_jobs))


def _compute(ctx: AnalysisContext, min_jobs: int) -> TuningReport:
    store = ctx.store
    posix = ("interface", int(IOInterface.POSIX))

    # Per-job aggregates over the POSIX rows: one stable sort by job id,
    # then one reduceat per sum over each job's run of rows.
    file_jobs = ctx.gather("job_id", posix)
    order = np.argsort(file_jobs, kind="stable")
    sorted_jobs = file_jobs[order]
    first = np.ones(len(sorted_jobs), dtype=bool)
    first[1:] = sorted_jobs[1:] != sorted_jobs[:-1]
    starts = np.flatnonzero(first)
    job_ids = sorted_jobs[starts]
    if not len(job_ids):
        return TuningReport(platform=store.platform, trajectories=())

    def per_job(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values[order], starts)

    ops = np.maximum(
        per_job(ctx.gather("reads", posix) + ctx.gather("writes", posix)), 1
    )
    nbytes = per_job(
        ctx.gather("bytes_read", posix) + ctx.gather("bytes_written", posix)
    )
    # Python int division: exact for byte sums past 2**53, where a
    # float64 quotient of float64-rounded operands can differ.
    job_req = np.array(
        [b / o for b, o in zip(nbytes.tolist(), ops.tolist())], dtype=np.float64
    )
    # A POSIX row is an MPI-IO shadow when any MPI-IO row in the store
    # shares its record id (the set is global, not per job).
    shadows = _isin_sorted(
        ctx.gather("record_id", posix),
        ctx.gather("record_id", ("interface", int(IOInterface.MPIIO))),
    )
    job_mpiio = per_job(shadows.astype(np.int64)) / np.diff(
        starts, append=len(sorted_jobs)
    )

    # Each user's jobs in time order (ties keep table order); jobs
    # without POSIX rows drop out.
    jobs = store.jobs
    by_user = np.lexsort((jobs["start_time"], jobs["user_id"]))
    ids = jobs["job_id"][by_user]
    at = np.minimum(np.searchsorted(job_ids, ids), len(job_ids) - 1)
    has = job_ids[at] == ids
    at = at[has]
    users = jobs["user_id"][by_user][has]
    bounds = np.flatnonzero(users[1:] != users[:-1]) + 1

    trajectories: list[UserTrajectory] = []
    for user, req, mp in zip(
        np.unique(users),
        np.split(job_req[at], bounds),
        np.split(job_mpiio[at], bounds),
    ):
        if len(req) < min_jobs:
            continue
        order_in_time = np.arange(len(req), dtype=np.float64)
        trajectories.append(
            UserTrajectory(
                user_id=int(user),
                njobs=len(req),
                request_sizes=req,
                mpiio_shares=mp,
                trend=_spearman(order_in_time, req),
            )
        )
    return TuningReport(platform=store.platform, trajectories=tuple(trajectories))
