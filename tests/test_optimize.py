"""Tests for the optimization advisors (the paper's recommendations)."""

import numpy as np
import pytest

from repro.api import run_query
from repro.darshan.accumulate import OP_WRITE, make_ops
from repro.iosim.lustre import LustreFilesystem
from repro.optimize import (
    assess_staging,
    find_aggregation_opportunities,
    rank_flash_wear,
    recommend_striping,
)
from repro.optimize.ssd import assess_stream
from repro.optimize.striping import recommend_stripe_count
from repro.platforms import cori, summit
from repro.units import GB, GiB, KiB, MiB


class TestAggregationAdvisor:
    def test_finds_small_request_populations(self, summit_store_small, summit_machine):
        opps = find_aggregation_opportunities(summit_store_small, summit_machine)
        assert opps, "tiny-request populations must exist by construction"
        # Ranked by total saved time, descending.
        saved = [o.saved_seconds for o in opps]
        assert saved == sorted(saved, reverse=True)

    def test_aggregation_always_helps_small_requests(
        self, summit_store_small, summit_machine
    ):
        for o in find_aggregation_opportunities(summit_store_small, summit_machine):
            assert o.speedup >= 1.0
            assert o.mean_request < 64 * KiB

    def test_pfs_tiny_reads_show_huge_gains(self, summit_store_small, summit_machine):
        """Recommendation 2's headline case: 0-100B PFS reads."""
        opps = find_aggregation_opportunities(summit_store_small, summit_machine)
        posix_pfs_reads = [
            o for o in opps
            if o.layer == "pfs" and o.interface == "POSIX" and o.direction == "read"
        ]
        assert posix_pfs_reads and posix_pfs_reads[0].speedup > 10

    def test_min_files_respected(self, summit_store_small, summit_machine):
        opps = find_aggregation_opportunities(
            summit_store_small, summit_machine, min_files=10**9
        )
        assert opps == []


class TestStagingAdvisor:
    @pytest.mark.parametrize("fixture,machine_fn", [
        ("summit_store_small", summit),
        ("cori_store_small", cori),
    ])
    def test_assessment(self, fixture, machine_fn, request):
        store = request.getfixturevalue(fixture)
        assessment = assess_staging(store, machine_fn(), sample=20_000)
        # Recommendation 3: the overwhelming majority of PFS files are
        # stageable, and the fast layer wins inside the job.
        assert assessment.stageable_file_fraction > 0.8
        assert assessment.stageable_bytes > 0
        assert assessment.staged_seconds < assessment.direct_seconds

    def test_sampling_caps_work(self, summit_store_small, summit_machine):
        small = assess_staging(summit_store_small, summit_machine, sample=1_000)
        assert small.direct_seconds > 0


class TestAdvisorMemo:
    """The registry runners memoize both advisors on the store's context."""

    @pytest.fixture()
    def store(self, summit_store_small):
        # A private copy: the tests below mutate it.
        head = np.arange(len(summit_store_small.files)) < 200_000
        return summit_store_small.filter(head)

    def test_second_staging_query_is_a_memo_hit(self, store):
        first = run_query(store, "advise_staging")
        hits, misses = store.analysis().cache_counts()
        assert run_query(store, "advise_staging") is first
        assert store.analysis().cache_counts() == (hits + 1, misses)
        assert first == assess_staging(store, summit())

    def test_top_slices_the_memoized_full_list(self, store):
        full = run_query(store, "advise_aggregation")
        assert len(full) > 3
        hits, misses = store.analysis().cache_counts()
        top = run_query(store, "advise_aggregation", {"top": 3})
        assert store.analysis().cache_counts() == (hits + 1, misses)
        assert len(top) == 3 and all(a is b for a, b in zip(top, full))
        # Each answer is its own list: trimming one leaves the memo whole.
        top.clear()
        assert run_query(store, "advise_aggregation") == full
        assert full == find_aggregation_opportunities(store, summit())

    def test_extend_recomputes_both_advisors(self, store, summit_store_small):
        staging = run_query(store, "advise_staging")
        aggregation = run_query(store, "advise_aggregation")
        store.append(summit_store_small.files[200_000:260_000])
        hits, misses = store.analysis().cache_counts()
        restaged = run_query(store, "advise_staging")
        reaggregated = run_query(store, "advise_aggregation")
        assert store.analysis().cache_counts()[1] > misses
        assert restaged is not staging and reaggregated is not aggregation
        assert restaged == assess_staging(store, summit())
        assert reaggregated == find_aggregation_opportunities(store, summit())
        assert restaged.stageable_bytes != staging.stageable_bytes


class TestStripingAdvisor:
    def test_heuristic_bounds(self):
        fs = LustreFilesystem()
        assert recommend_stripe_count(0, 64, fs) == 1
        assert recommend_stripe_count(512 * 1024, 64, fs) == 1
        assert recommend_stripe_count(100 * GiB, 64, fs) == 64  # proc-bound
        assert recommend_stripe_count(10**15, 10**6, fs) == fs.ost_count

    def test_recommendations_priced(self):
        fs = LustreFilesystem()
        layer = cori().pfs
        sizes = np.array([1 * GB, 50 * GB, 500 * GB])
        nprocs = np.array([32, 256, 1024])
        recs = recommend_striping(sizes, nprocs, layer, fs)
        assert len(recs) == 3
        # Big shared files gain a lot over the default stripe count of 1.
        assert recs[2].recommended_stripe_count > recs[0].recommended_stripe_count
        assert recs[2].speedup > 2.0
        # Never slower than the default.
        assert all(r.speedup >= 1.0 for r in recs)

    def test_shape_mismatch(self):
        fs = LustreFilesystem()
        with pytest.raises(ValueError):
            recommend_striping(
                np.array([1, 2]), np.array([1]), cori().pfs, fs
            )


class TestFlashWearAdvisor:
    def _stream(self, offsets, sizes):
        n = len(offsets)
        return make_ops(
            [OP_WRITE] * n, offsets, sizes,
            np.arange(n, dtype=float), [0.001] * n,
        )

    def test_sequential_log_is_benign(self):
        offsets = list(range(0, 10 * 4096, 4096))
        report = assess_stream(1, 0, self._stream(offsets, [4096] * 10))
        assert report.severity == "low"
        assert report.mitigations == ()

    def test_rewrite_heavy_flagged(self):
        report = assess_stream(
            1, 0, self._stream([0] * 50, [4096] * 50)
        )
        assert report.ext.rewrite_ratio > 0.9
        assert any("cache rewrites" in m for m in report.mitigations)

    def test_random_writes_flagged(self):
        rng = np.random.default_rng(3)
        offsets = (rng.permutation(100) * 50_000).tolist()
        report = assess_stream(1, 0, self._stream(offsets, [512] * 100))
        assert any("batch" in m for m in report.mitigations)
        assert report.write_amplification > 1.5

    def test_ranking(self):
        rng = np.random.default_rng(4)
        benign = (1, 0, self._stream(list(range(0, 40960, 4096)), [4096] * 10))
        hostile = (
            2, 0,
            self._stream((rng.permutation(50) * 9_000).tolist(), [256] * 50),
        )
        reports = rank_flash_wear([benign, hostile])
        assert reports[0].record_id == 2
        assert reports[0].write_amplification > reports[1].write_amplification
