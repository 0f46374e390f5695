"""Shared pieces of the three workloads: statistics, checks, store sizing."""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.serve.registry import default_registry

#: Queries with an exact append fold and a federation reducer.
FOLDABLE = tuple(name for name, spec in default_registry().items() if spec.foldable)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark so far, in MB.

    Each workload reads it when its timed work is done, before its
    end-of-run output checks, so the checks' own copies do not count.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def iqr_share(values) -> float | None:
    """Quartile distance over the median, as ``statistics.quantiles`` gives
    them; None with fewer than two samples."""
    values = list(values)
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


class Outcome:
    """Operation and output-check tally for one run.

    Every timed operation and every output check counts as attempted;
    a failed operation or a failed check counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.op(bool(ok), f"check failed: {what}")


def sample_jobs(store, target_rows: int, scale: float, rng: np.random.Generator):
    """A store of whole jobs drawn in seeded order up to ``target_rows``.

    The generator's jobs are heavy-tailed (one summit job can hold most of
    a store's rows), so a store generated per seed varies several-fold in
    size. Drawing whole jobs to a fixed row budget keeps the seed in
    charge of the content while the working-set size stays fixed. The
    result is stamped with the nominal ``scale`` of a store that size, the
    same for every draw, so draws can be federated.
    """
    from repro.store.recordstore import RecordStore

    job_rows = dict(zip(*np.unique(store.files["job_id"], return_counts=True)))
    rows = [int(job_rows.get(job, 0)) for job in store.jobs["job_id"]]
    keep = np.zeros(len(store.jobs), dtype=bool)
    total = 0
    for j in rng.permutation(len(store.jobs)):
        if total + rows[j] <= target_rows:
            keep[j] = True
            total += rows[j]
    picked = store.filter_jobs(keep)
    return RecordStore(
        picked.platform, picked.files, picked.jobs,
        domains=picked.domains, extensions=picked.extensions,
        scale=scale,
        schema_version=picked.schema_version,
    )
