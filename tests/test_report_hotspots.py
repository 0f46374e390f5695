"""Edge cases and loop references of the report's four costliest queries.

``tuning``, ``temporal``, ``advise_staging`` and ``advise_aggregation``
have their full results pinned, with every other registry query, in
``tests/goldens/analysis_results.json``. The edge-case classes here pin
behaviours the goldens' stores may not exercise, and the loop
references are the straightforward per-job and per-file formulations
the column versions must agree with on seeded random stores (duplicate
job ids, ties and orphaned files included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.temporal import temporal_profile
from repro.analysis.tuning import tuning_report
from repro.optimize import assess_staging
from repro.platforms import summit
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_CODES, LAYER_PFS, empty_files, empty_jobs

POSIX = int(IOInterface.POSIX)
MPIIO = int(IOInterface.MPIIO)
STDIO = int(IOInterface.STDIO)


# -- hand-built stores ---------------------------------------------------------
def _jobs(rows):
    """Job table from (job_id, user_id, start_time) triples."""
    jobs = empty_jobs(len(rows))
    for i, (job_id, user_id, start) in enumerate(rows):
        jobs[i] = (job_id, user_id, 1, 4, -1, 100.0, float(start), 1, 0)
    return jobs


def _files(rows):
    """File table from dicts of column values; unnamed columns default."""
    files = empty_files(len(rows))
    for i, row in enumerate(rows):
        files["layer"][i] = LAYER_PFS
        files["interface"][i] = POSIX
        files["nprocs"][i] = 4
        for key, value in row.items():
            files[key][i] = value
        files["log_id"][i] = int(files["job_id"][i]) << 20
        files["user_id"][i] = 10
    return files


class TestTuningEdges:
    def test_job_without_posix_rows_is_skipped(self):
        jobs = _jobs([(j, 10, 1000.0 * j) for j in range(1, 7)])
        files = _files(
            [
                {"job_id": j, "record_id": j, "bytes_read": 1000 * j, "reads": 10}
                for j in (1, 2, 4, 5, 6)
            ]
            + [{"job_id": 3, "record_id": 3, "interface": STDIO,
                "bytes_read": 999_999, "reads": 1}]
        )
        report = tuning_report(RecordStore("summit", files, jobs), min_jobs=5)
        (trajectory,) = report.trajectories
        assert trajectory.njobs == 5
        assert trajectory.request_sizes.tolist() == [100.0, 200.0, 400.0, 500.0, 600.0]

    def test_user_below_min_jobs_once_posixless_jobs_drop(self):
        jobs = _jobs([(j, 10, 1000.0 * j) for j in range(1, 6)])
        files = _files(
            [{"job_id": j, "record_id": j, "bytes_read": 10, "reads": 1}
             for j in (1, 2, 3, 4)]
        )
        report = tuning_report(RecordStore("summit", files, jobs), min_jobs=5)
        assert report.trajectories == ()

    def test_mpiio_shadow_counts_across_jobs(self):
        # The MPI-IO record set is global: job 2's MPI-IO row shadows the
        # POSIX row of job 1 that shares its record id.
        jobs = _jobs([(j, 10, 1000.0 * j) for j in range(1, 6)])
        rows = [
            {"job_id": j, "record_id": 100 + j, "bytes_read": 4096, "reads": 1}
            for j in range(1, 6)
        ]
        rows.append({"job_id": 1, "record_id": 777, "bytes_read": 4096, "reads": 1})
        rows.append({"job_id": 2, "record_id": 777, "interface": MPIIO,
                     "bytes_read": 4096, "reads": 1})
        report = tuning_report(RecordStore("summit", _files(rows), jobs), min_jobs=5)
        (trajectory,) = report.trajectories
        assert trajectory.mpiio_shares.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0]


class TestTemporalEdges:
    def test_file_of_unknown_job_bins_at_start_zero(self):
        jobs = _jobs([(1, 10, 7200.0), (2, 10, 3 * 3600.0 + 5)])
        files = _files(
            [
                {"job_id": 1, "record_id": 1, "bytes_read": 10},
                {"job_id": 2, "record_id": 2, "bytes_written": 20},
                {"job_id": 99, "record_id": 3, "bytes_read": 30,
                 "bytes_written": 40},
            ]
        )
        profile = temporal_profile(RecordStore("summit", files, jobs))
        assert profile.read_series[:4].tolist() == [30.0, 0.0, 10.0, 0.0]
        assert profile.write_series[:4].tolist() == [40.0, 0.0, 0.0, 20.0]


class TestStagingHeadSample:
    def test_sample_takes_first_stageable_rows_in_row_order(self):
        rng = np.random.default_rng(11)
        n = 400
        rows = []
        for i in range(n):
            read, write = rng.integers(0, 2, size=2) * rng.integers(1, 10**7, size=2)
            rows.append({
                "job_id": 1 + i % 7,
                "record_id": i,
                "layer": LAYER_PFS if i % 5 else LAYER_CODES["insystem"],
                "interface": (POSIX, STDIO, MPIIO)[i % 3],
                "bytes_read": read,
                "bytes_written": write,
                "reads": rng.integers(1, 1000),
                "writes": rng.integers(1, 1000),
                "rank": -1 if i % 4 == 0 else 0,
                "nprocs": int(rng.integers(1, 512)),
            })
        files = _files(rows)
        jobs = _jobs([(j, 10, 100.0 * j) for j in range(1, 8)])
        machine = summit()
        sample = 37
        # Stageable: a unique PFS row that is read-only or write-only
        # (zero-byte rows class as read-only).
        stageable = (
            (files["layer"] == LAYER_PFS)
            & (files["interface"] != MPIIO)
            & ~((files["bytes_read"] > 0) & (files["bytes_written"] > 0))
        )
        head = np.flatnonzero(stageable)[:sample]
        assert len(head) == sample and stageable.sum() > sample

        sampled = assess_staging(
            RecordStore("summit", files, jobs), machine, sample=sample
        )
        direct = assess_staging(
            RecordStore("summit", files[head], jobs), machine, sample=None
        )
        for field in ("stageable_bytes", "direct_seconds", "staged_seconds",
                      "movement_seconds"):
            assert getattr(sampled, field) == getattr(direct, field), field


# -- loop references -----------------------------------------------------------
def _reference_tuning_jobs(store: RecordStore) -> tuple[dict, dict]:
    """Per-job mean POSIX request size and MPI-IO shadow share, one job
    at a time."""
    files = store.files
    posix = files[files["interface"] == POSIX]
    mpiio_ids = set(files["record_id"][files["interface"] == MPIIO].tolist())
    job_req: dict[int, float] = {}
    job_mpiio: dict[int, float] = {}
    for job_id in np.unique(posix["job_id"]):
        sel = posix[posix["job_id"] == job_id]
        ops = max(int(sel["reads"].sum() + sel["writes"].sum()), 1)
        nbytes = int(sel["bytes_read"].sum() + sel["bytes_written"].sum())
        job_req[int(job_id)] = nbytes / ops
        shadows = sum(1 for rid in sel["record_id"] if int(rid) in mpiio_ids)
        job_mpiio[int(job_id)] = shadows / len(sel)
    return job_req, job_mpiio


def _reference_trajectories(store: RecordStore, min_jobs: int) -> list:
    job_req, job_mpiio = _reference_tuning_jobs(store)
    jobs = store.jobs
    out = []
    for user in np.unique(jobs["user_id"]):
        rows = jobs[jobs["user_id"] == user]
        rows = rows[np.argsort(rows["start_time"], kind="stable")]
        ids = [int(j) for j in rows["job_id"] if int(j) in job_req]
        if len(ids) < min_jobs:
            continue
        out.append((int(user), [job_req[j] for j in ids], [job_mpiio[j] for j in ids]))
    return out


def _reference_starts(store: RecordStore) -> np.ndarray:
    """Each unique file row's job start; 0.0 for a job not in the table
    (a repeated job id takes its last row's start)."""
    jobs = store.jobs
    start_by_job = dict(zip(jobs["job_id"].tolist(), jobs["start_time"].tolist()))
    files = store.files[store.files["interface"] != MPIIO]
    return np.array(
        [start_by_job.get(int(j), 0.0) for j in files["job_id"]], dtype=np.float64
    )


def _random_store(seed: int) -> RecordStore:
    """Small store with repeated job ids, start-time ties, orphaned
    files, cross-job MPI-IO shadows and job byte sums past 2**53."""
    rng = np.random.default_rng(seed)
    njobs, nfiles = 60, 900
    job_ids = rng.integers(1, 50, size=njobs)  # repeats on purpose
    jobs = empty_jobs(njobs)
    jobs["job_id"] = job_ids
    jobs["user_id"] = rng.integers(1, 5, size=njobs)
    jobs["start_time"] = rng.integers(0, 20, size=njobs) * 1800.0  # ties
    jobs["runtime"] = 600.0
    files = empty_files(nfiles)
    files["job_id"] = rng.integers(1, 56, size=nfiles)  # some unknown jobs
    files["record_id"] = rng.integers(1, 300, size=nfiles).astype(np.uint64)
    files["interface"] = rng.choice([POSIX, POSIX, MPIIO, STDIO], size=nfiles)
    files["layer"] = LAYER_PFS
    files["bytes_read"] = rng.integers(0, 2**52, size=nfiles)
    files["bytes_written"] = rng.integers(0, 2**52, size=nfiles) * rng.integers(0, 2, size=nfiles)
    files["reads"] = rng.integers(0, 3, size=nfiles) * rng.integers(1, 10**6, size=nfiles)
    files["writes"] = rng.integers(0, 10**6, size=nfiles)
    return RecordStore("summit", files, jobs)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
class TestAgainstLoopReference:
    def test_tuning(self, seed):
        store = _random_store(seed)
        report = tuning_report(store, min_jobs=3)
        expected = _reference_trajectories(store, 3)
        assert expected, "the random store must yield trajectories"
        got = [
            (t.user_id, t.request_sizes.tolist(), t.mpiio_shares.tolist())
            for t in report.trajectories
        ]
        assert got == expected

    def test_temporal(self, seed):
        store = _random_store(seed)
        profile = temporal_profile(store, bin_seconds=900.0)
        starts = _reference_starts(store)
        files = store.files[store.files["interface"] != MPIIO]
        nbins = len(profile.read_series)
        idx = np.minimum((starts / 900.0).astype(np.int64), nbins - 1)
        for series, column in ((profile.read_series, "bytes_read"),
                               (profile.write_series, "bytes_written")):
            expected = np.bincount(
                idx, weights=files[column].astype(np.float64), minlength=nbins
            )
            assert series.tobytes() == expected.tobytes()
