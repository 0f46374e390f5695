"""The what-if point path's internals: job join, baseline memo, memory.

- **job join**: :func:`~repro.iosim.replay.join_jobs` is one sorted-index
  join shared by the facility replay and the what-if node counts. It
  must equal a dict built over the job table in order — unsorted
  tables, and duplicate job ids, whose last row wins — and a file row
  whose job is missing is a typed error naming the job id;
- **baseline memo**: a store's baseline is computed once per store
  generation, so a second point on the same store reuses it and an
  append recomputes it;
- **no per-point table copy**: a point allocates its four re-timed
  columns and bounded temporaries, not a copy of the 262-byte rows.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import AnalysisError
from repro.iosim.replay import FacilityReplay, job_windows, join_jobs
from repro.obs import Tracer, set_tracer
from repro.platforms import summit
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs
from repro.whatif import compute_point, sweep
from repro.whatif.transfers import nnodes_by_row
from tests.conftest import fresh_store

_IFACES = [int(i) for i in IOInterface]


def _jobs(ids, nnodes, starts, runtimes) -> np.ndarray:
    jobs = empty_jobs(len(ids))
    jobs["job_id"] = ids
    jobs["nnodes"] = nnodes
    jobs["start_time"] = starts
    jobs["runtime"] = runtimes
    return jobs


@st.composite
def job_tables(draw):
    """An unsorted job table over a small id range (duplicates likely),
    and file-row job ids that mostly hit it."""
    n = draw(st.integers(min_value=1, max_value=24))
    ids = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    nnodes = draw(st.lists(st.integers(1, 4096), min_size=n, max_size=n))
    starts = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    runtimes = draw(st.lists(st.floats(0, 1e5), min_size=n, max_size=n))
    queries = draw(st.lists(st.integers(-2, 17), max_size=40))
    return _jobs(ids, nnodes, starts, runtimes), np.array(queries, dtype=np.int64)


class TestJobJoin:
    @settings(max_examples=200, deadline=None)
    @given(job_tables())
    def test_join_equals_dict_join(self, case):
        jobs, queries = case
        # The reference: later rows overwrite earlier ones.
        last_row = {int(j): i for i, j in enumerate(jobs["job_id"])}
        pos, found = join_jobs(queries, jobs)
        assert found.tolist() == [int(q) in last_row for q in queries]
        assert pos[found].tolist() == [
            last_row[int(q)] for q in queries if int(q) in last_row
        ]

    @settings(max_examples=100, deadline=None)
    @given(job_tables())
    def test_nnodes_equals_dict_join(self, case):
        jobs, queries = case
        by_job = dict(zip(jobs["job_id"].tolist(), jobs["nnodes"].tolist()))
        expected = [float(by_job.get(int(q), 1)) for q in queries]
        assert nnodes_by_row(queries, jobs).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(job_tables(), st.data())
    def test_windows_equal_dict_join(self, case, data):
        jobs, _ = case
        present = sorted(set(jobs["job_id"].tolist()))
        n = data.draw(st.integers(0, 30))
        files = empty_files(n)
        files["job_id"] = data.draw(
            st.lists(st.sampled_from(present), min_size=n, max_size=n)
        )
        files["interface"] = data.draw(
            st.lists(st.sampled_from(_IFACES), min_size=n, max_size=n)
        )
        store = RecordStore("summit", files, jobs)
        start_by_job = dict(
            zip(jobs["job_id"].tolist(), jobs["start_time"].tolist())
        )
        runtime_by_job = dict(
            zip(jobs["job_id"].tolist(), jobs["runtime"].tolist())
        )
        unique = files[files["interface"] != int(IOInterface.MPIIO)]
        starts, runtimes = job_windows(store)
        assert starts.tolist() == [
            start_by_job[int(j)] for j in unique["job_id"]
        ]
        assert runtimes.tolist() == [
            max(runtime_by_job[int(j)], 1.0) for j in unique["job_id"]
        ]

    def test_empty_job_table_finds_nothing(self):
        pos, found = join_jobs(np.array([1, 2]), empty_jobs(0))
        assert not found.any() and len(pos) == 2

    def test_missing_job_is_typed_and_named(self):
        files = empty_files(3)
        files["job_id"] = [1, 2, 77]
        files["interface"] = int(IOInterface.POSIX)
        files["bytes_written"] = 1 << 20
        store = RecordStore("summit", files, _jobs([2, 1], 1, 0.0, 60.0))
        with pytest.raises(AnalysisError, match="job id 77"):
            FacilityReplay(store, summit()).demands()
        with pytest.raises(AnalysisError, match="job id 77"):
            compute_point(fresh_store(store), "identity")

    def test_missing_job_on_a_shadow_row_is_ignored(self):
        """Only unique-accounting rows enter the replay, as before."""
        files = empty_files(2)
        files["job_id"] = [1, 77]
        files["interface"] = [int(IOInterface.POSIX), int(IOInterface.MPIIO)]
        store = RecordStore("summit", files, _jobs([1], 1, 0.0, 60.0))
        assert FacilityReplay(store, summit()).demands()


@pytest.fixture(scope="module")
def point_store():
    """Summit at scale 2e-4, seed 7 (the what-if golden's store)."""
    return repro.generate_store("summit", scale=2e-4, seed=7)


def _baseline_spans(fn) -> int:
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        fn()
    finally:
        set_tracer(previous)
    return sum(1 for r in tracer.records() if r.name == "whatif.baseline")


class TestBaselineMemo:
    def test_second_point_is_a_memo_hit(self, point_store):
        store = fresh_store(point_store)
        assert _baseline_spans(lambda: compute_point(store, "identity")) == 1
        ctx = store.analysis()
        hits, misses = ctx.cache_counts()
        assert _baseline_spans(lambda: compute_point(store, "ost_fault")) == 0
        assert _baseline_spans(
            lambda: sweep(store, "stripe", [{"factor": 2.0}, {"factor": 4.0}])
        ) == 0
        assert ctx.cache_counts()[0] > hits
        assert ctx.cache_info()["whatif.baseline"] == 1

    def test_append_recomputes_the_baseline(self, point_store):
        store = fresh_store(point_store)
        before = compute_point(store, "identity")
        counted = store.analysis().idx(
            "unique", ("layer", 0), ("pos", "bytes_read")
        )[:64]
        store.append(store.files[counted].copy())
        spans = _baseline_spans(
            lambda: compute_point(store, "identity")
        )
        after = compute_point(store, "identity")
        assert spans == 1
        assert after.outcome == after.baseline
        assert sum(m.files for m in after.baseline) > sum(
            m.files for m in before.baseline
        )
        # The recomputed baseline is a cold store's, bit for bit.
        assert after == compute_point(fresh_store(store), "identity")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPointAllocation:
    """A point costs its re-timed columns, not a copy of the table.

    The first point on a store also fills the context's column cache
    (twelve scalar columns, about a third of the row width), which
    every later point and analysis on the store reads; a point that
    copied the 262-byte table, as the row path did, reads over 2x.
    """

    @pytest.mark.parametrize("scenario", ["stripe", "bb_offload"])
    def test_warm_point_peak_under_half_the_table(self, point_store, scenario):
        store = fresh_store(point_store)
        compute_point(store, "identity")
        peak = _traced_peak(lambda: compute_point(store, scenario))
        assert peak < 0.5 * store.files.nbytes, peak / store.files.nbytes

    def test_cold_point_peak_under_the_table(self, point_store):
        store = fresh_store(point_store)
        peak = _traced_peak(lambda: compute_point(store, "bb_offload"))
        assert peak < 1.0 * store.files.nbytes, peak / store.files.nbytes
