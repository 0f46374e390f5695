"""Tests for the tuning-trajectory analysis (§5 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tuning import (
    TuningReport,
    _isin_sorted,
    _spearman,
    tuning_report,
)
from repro.errors import AnalysisError
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_PFS, empty_files, empty_jobs


def _store_with_trajectory(request_sizes_per_job, user_id=10):
    """One user, one POSIX file per job, chosen mean request sizes."""
    njobs = len(request_sizes_per_job)
    jobs = empty_jobs(njobs)
    files = empty_files(njobs)
    for i, req in enumerate(request_sizes_per_job):
        jobs[i] = (i + 1, user_id, 1, 4, -1, 100.0, float(i * 1000), 1, 0)
        files["job_id"][i] = i + 1
        files["log_id"][i] = (i + 1) << 20
        files["user_id"][i] = user_id
        files["record_id"][i] = i + 1
        files["layer"][i] = LAYER_PFS
        files["interface"][i] = 1  # POSIX
        files["bytes_read"][i] = req * 10
        files["read_time"][i] = 1.0
        files["reads"][i] = 10
    return RecordStore("summit", files, jobs)


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(10, dtype=float)
        assert _spearman(x, x * 3 + 1) == pytest.approx(1.0)
        assert _spearman(x, -x) == pytest.approx(-1.0)

    def test_constant_is_nan(self):
        x = np.arange(5, dtype=float)
        assert np.isnan(_spearman(x, np.ones(5)))

    def test_short_is_nan(self):
        assert np.isnan(_spearman(np.arange(2.0), np.arange(2.0)))


class TestTuningReport:
    def test_improving_user_detected(self):
        store = _store_with_trajectory([1000, 2000, 8000, 64_000, 256_000])
        report = tuning_report(store, min_jobs=5)
        assert len(report.trajectories) == 1
        assert report.trajectories[0].classification == "improving"
        assert report.fraction("improving") == 1.0

    def test_regressing_user_detected(self):
        store = _store_with_trajectory([256_000, 64_000, 8_000, 2_000, 1_000])
        report = tuning_report(store, min_jobs=5)
        assert report.trajectories[0].classification == "regressing"

    def test_flat_user(self):
        store = _store_with_trajectory([4096, 4100, 4080, 4095, 4099, 4085])
        report = tuning_report(store, min_jobs=5)
        assert report.trajectories[0].classification == "flat"

    def test_min_jobs_filter(self):
        store = _store_with_trajectory([1000, 2000, 3000])
        assert tuning_report(store, min_jobs=5).trajectories == ()
        with pytest.raises(AnalysisError):
            tuning_report(store, min_jobs=2)

    def test_generated_population_mostly_flat(self, cori_store_small):
        """The paper's suspicion: production users don't tune. Our
        generator draws each job's profile independently of history, so
        the detector must read 'flat' for the bulk of users."""
        report = tuning_report(cori_store_small, min_jobs=5)
        assert report.trajectories, "need users with >= 5 jobs"
        assert report.fraction("flat") > 0.5

    def test_rows_render(self, cori_store_small):
        rows = tuning_report(cori_store_small).to_rows()
        assert rows[0][0] == "cori"
        assert len(rows[0]) == 5

    def test_empty_report(self):
        report = TuningReport("summit", ())
        assert np.isnan(report.fraction("flat"))


#: Record ids drawn from both ends of the uint64 range, so duplicates
#: are common and the probe meets ids at ``2**64 - 1``.
_record_ids = st.lists(
    st.one_of(
        st.integers(0, 20),
        st.integers(2**64 - 20, 2**64 - 1),
    ),
    max_size=60,
).map(lambda ids: np.array(ids, dtype=np.uint64))


class TestShadowProbe:
    @given(_record_ids, _record_ids)
    @settings(max_examples=200, deadline=None)
    def test_sorted_probe_equals_isin(self, ids, pool):
        np.testing.assert_array_equal(_isin_sorted(ids, pool), np.isin(ids, pool))

    def test_empty_pool_is_all_false(self):
        ids = np.array([3, 2**64 - 1, 3], dtype=np.uint64)
        found = _isin_sorted(ids, np.array([], dtype=np.uint64))
        assert found.dtype == bool and found.tolist() == [False] * 3
