"""User-behavior statistics, in the spirit of Lim et al. (SC '17).

The related work (§4) characterizes "scientific user behavior and
data-sharing trends": how concentrated activity is across users, how many
jobs/files/bytes each user drives. The paper's own dataset carries user
ids; this module computes the standard concentration statistics over a
store so the synthetic population can be inspected the same way (and the
generator's skewed user model — few users run most jobs — is testable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.store.recordstore import RecordStore


@dataclass(frozen=True)
class UserActivity:
    """Per-user aggregates plus concentration summaries."""

    platform: str
    nusers: int
    #: Sorted descending: jobs, files, bytes per user.
    jobs_per_user: np.ndarray
    files_per_user: np.ndarray
    bytes_per_user: np.ndarray

    def top_share(self, k: int, what: str = "bytes") -> float:
        """Share of activity driven by the top-k users."""
        arr = self._select(what)
        total = arr.sum()
        if total <= 0:
            return float("nan")
        return float(arr[:k].sum() / total)

    def gini(self, what: str = "bytes") -> float:
        """Gini coefficient of the per-user distribution (0 = equal)."""
        arr = np.sort(self._select(what).astype(np.float64))
        n = len(arr)
        total = arr.sum()
        if n == 0 or total <= 0:
            return float("nan")
        index = np.arange(1, n + 1)
        return float((2 * (index * arr).sum()) / (n * total) - (n + 1) / n)

    def _select(self, what: str) -> np.ndarray:
        try:
            return {
                "jobs": self.jobs_per_user,
                "files": self.files_per_user,
                "bytes": self.bytes_per_user,
            }[what]
        except KeyError:
            raise AnalysisError(
                f"unknown activity axis {what!r}; use jobs/files/bytes"
            ) from None

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                str(self.nusers),
                f"{100 * self.top_share(max(1, self.nusers // 10), 'jobs'):.1f}%",
                f"{100 * self.top_share(max(1, self.nusers // 10), 'bytes'):.1f}%",
                f"{self.gini('jobs'):.3f}",
                f"{self.gini('bytes'):.3f}",
            ]
        ]


def user_activity(store: RecordStore) -> UserActivity:
    """Compute per-user activity for a store."""
    ctx = store.analysis()
    return ctx.cached(("result", "user_activity"), lambda: _compute(ctx))


def _compute(ctx: AnalysisContext) -> UserActivity:
    store = ctx.store
    jobs = store.jobs
    if not len(jobs):
        raise AnalysisError("store has no jobs")
    users, job_counts = np.unique(jobs["user_id"], return_counts=True)
    user_index = {int(u): i for i, u in enumerate(users)}

    file_counts = np.zeros(len(users), dtype=np.int64)
    byte_counts = np.zeros(len(users), dtype=np.int64)
    file_users = ctx.column("user_id")
    fu, fc = np.unique(file_users, return_counts=True)
    for u, c in zip(fu, fc):
        idx = user_index.get(int(u))
        if idx is not None:
            file_counts[idx] = c
    volumes = ctx.transfer_sizes()
    order = np.argsort(file_users, kind="stable")
    sorted_users = file_users[order]
    sorted_vol = volumes[order]
    boundaries = np.searchsorted(sorted_users, users)
    boundaries = np.append(boundaries, len(sorted_users))
    for i in range(len(users)):
        byte_counts[i] = sorted_vol[boundaries[i] : boundaries[i + 1]].sum()

    def desc(a: np.ndarray) -> np.ndarray:
        return np.sort(a)[::-1]

    return UserActivity(
        platform=store.platform,
        nusers=len(users),
        jobs_per_user=desc(job_counts),
        files_per_user=desc(file_counts),
        bytes_per_user=desc(byte_counts),
    )
