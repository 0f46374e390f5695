"""Tests for the workload generator."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.errors import ConfigurationError
from repro.platforms.interfaces import IOInterface
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.workloads.generator import (
    GeneratorConfig,
    WorkloadGenerator,
    _consistent_histograms,
)
from repro.workloads.distributions import BinProfile
from repro.workloads.mixes import cori_mix


class TestDeterminism:
    def test_same_seed_same_store(self):
        a = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(11)
        b = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(11)
        np.testing.assert_array_equal(a.files, b.files)
        np.testing.assert_array_equal(a.jobs, b.jobs)

    def test_different_seeds_differ(self):
        a = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(11)
        b = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(12)
        assert len(a.files) != len(b.files) or not np.array_equal(a.files, b.files)


class TestStructure:
    def test_every_file_has_a_job(self, summit_store_small):
        st = summit_store_small
        assert np.isin(st.files["job_id"], st.jobs["job_id"]).all()

    def test_log_ids_belong_to_their_job(self, summit_store_small):
        st = summit_store_small
        # log_id = job_id << 20 | instance.
        np.testing.assert_array_equal(
            st.files["log_id"] >> 20, st.files["job_id"]
        )

    def test_layers_and_interfaces_valid(self, summit_store_small):
        f = summit_store_small.files
        assert set(np.unique(f["layer"])) <= {LAYER_PFS, LAYER_INSYSTEM}
        assert set(np.unique(f["interface"])) <= {1, 2, 3}

    def test_nonnegative_bytes_and_times(self, summit_store_small):
        f = summit_store_small.files
        for col in ("bytes_read", "bytes_written", "read_time", "write_time"):
            assert (f[col] >= 0).all(), col

    def test_bytes_imply_time(self, summit_store_small):
        f = summit_store_small.files
        assert (f["read_time"][f["bytes_read"] > 0] > 0).all()
        assert (f["write_time"][f["bytes_written"] > 0] > 0).all()

    def test_stdio_has_no_histograms(self, summit_store_small):
        """Fidelity to the Darshan gap (Recommendation 4)."""
        f = summit_store_small.files
        stdio = f[f["interface"] == int(IOInterface.STDIO)]
        assert stdio["read_hist"].sum() == 0
        assert stdio["write_hist"].sum() == 0

    def test_posix_histograms_match_op_counts(self, summit_store_small):
        f = summit_store_small.files
        posix = f[f["interface"] == int(IOInterface.POSIX)]
        np.testing.assert_array_equal(
            posix["read_hist"].sum(axis=1), posix["reads"]
        )
        np.testing.assert_array_equal(
            posix["write_hist"].sum(axis=1), posix["writes"]
        )

    def test_histogram_byte_consistency(self, summit_store_small):
        """bytes must lie within [hist floor, hist capacity] per file."""
        f = summit_store_small.files
        posix = f[f["interface"] == int(IOInterface.POSIX)]
        edges = np.asarray(ACCESS_SIZE_BINS.edges)
        lower = edges[:-1].copy()
        lower[0] = 1.0
        floor = posix["read_hist"] @ lower
        assert (posix["bytes_read"] >= floor).all()

    def test_shared_files_marked(self, summit_store_small):
        f = summit_store_small.files
        shared = f["rank"] == -1
        assert shared.any() and (~shared).any()
        nonshared = f[~shared]
        assert (nonshared["rank"] < nonshared["nprocs"]).all()

    def test_domains_within_catalog(self, cori_store_small):
        st = cori_store_small
        assert st.files["domain"].max() < len(st.domains)
        # Cori has unknown-domain jobs (no NEWT record).
        assert (st.jobs["domain"] == -1).any()

    def test_summit_domains_all_known(self, summit_store_small):
        assert (summit_store_small.jobs["domain"] >= 0).all()


    def test_groups_without_extensions_read_none(self):
        # The table is allocated zeroed, so a group with no extension mix
        # must write the -1 "none" code itself (0 is the first extension).
        mix = [
            (w, replace(spec, groups=tuple(replace(g, ext_probs={}) for g in spec.groups)))
            for w, spec in cori_mix()
        ]
        store = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5), mix=mix).generate(
            11, shadows=True
        )
        assert len(store.files) and (store.files["ext"] == -1).all()


class TestShadows:
    def test_every_mpiio_row_has_posix_shadow(self, cori_store_small):
        f = cori_store_small.files
        mpiio = f[f["interface"] == int(IOInterface.MPIIO)]
        posix = f[f["interface"] == int(IOInterface.POSIX)]
        assert len(mpiio) > 0
        shadow_ids = set(posix["record_id"])
        assert set(mpiio["record_id"]) <= shadow_ids

    def test_shadow_bytes_match(self, cori_store_small):
        f = np.sort(cori_store_small.files, order=["record_id", "interface"])
        mpiio = f[f["interface"] == int(IOInterface.MPIIO)]
        posix = f[f["interface"] == int(IOInterface.POSIX)]
        posix_by_id = posix[np.isin(posix["record_id"], mpiio["record_id"])]
        np.testing.assert_array_equal(
            mpiio["bytes_read"], posix_by_id["bytes_read"]
        )


class TestScaling:
    def test_scale_recorded(self):
        st = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(3)
        assert st.scale == pytest.approx(5e-5, rel=0.3)

    def test_job_count_scales(self):
        small = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(3)
        big = WorkloadGenerator("cori", GeneratorConfig(scale=2e-4)).generate(3)
        assert 2.5 < len(big.jobs) / len(small.jobs) < 6.5

    def test_target_jobs_override(self):
        st = WorkloadGenerator(
            "cori", GeneratorConfig(scale=1e-2, target_jobs=1000)
        ).generate(3)
        assert 3 <= len(st.jobs) <= 25

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(scale=0)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(scale=2.0)


class TestSingleAllocation:
    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_peak_memory_near_output_size(self, platform):
        """The file table is allocated once and filled in place.

        A whole-table copy (concatenating per-block tables, or appending
        the MPI-IO shadows by concatenation) roughly doubles the traced
        peak; in-place filling stays within per-block temporaries.
        """
        gen = WorkloadGenerator(platform, GeneratorConfig(scale=2e-4))
        tracemalloc.start()
        try:
            store = gen.generate(7, shadows=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (store.files.nbytes + store.jobs.nbytes)


class TestNoIoJobs:
    def test_some_jobs_have_no_file_records(self, summit_store_small):
        """Table 5's gap: ~13% of Summit jobs log no layer-attributed I/O."""
        st = summit_store_small
        jobs_with_files = set(np.unique(st.files["job_id"]).tolist())
        all_jobs = set(st.jobs["job_id"].tolist())
        silent = all_jobs - jobs_with_files
        frac = len(silent) / len(all_jobs)
        assert 0.04 < frac < 0.25

    def test_fraction_configurable(self):
        gen = WorkloadGenerator(
            "cori", GeneratorConfig(scale=5e-5, no_io_fraction=0.0)
        )
        st = gen.generate(5)
        jobs_with_files = set(np.unique(st.files["job_id"]).tolist())
        assert jobs_with_files == set(st.jobs["job_id"].tolist())


class TestConsistentHistograms:
    def test_repairs_floor_violations(self, rng):
        # Profile puts ops in 1M_4M but files move only ~1 KB.
        profile = BinProfile.from_dict({"1M_4M": 1.0})
        nops = np.array([1, 2], dtype=np.int64)
        nbytes = np.array([1000, 3000], dtype=np.int64)
        hist = _consistent_histograms(rng, profile, nops, nbytes)
        edges = np.asarray(ACCESS_SIZE_BINS.edges)
        lower = edges[:-1].copy()
        lower[0] = 1.0
        assert ((hist @ lower) <= nbytes).all()
        np.testing.assert_array_equal(hist.sum(axis=1), nops)

    def test_repairs_capacity_violations(self, rng):
        # One op in 0_100 cannot carry 1 MB.
        profile = BinProfile.from_dict({"0_100": 1.0})
        hist = _consistent_histograms(
            rng, profile,
            np.array([1], dtype=np.int64), np.array([10**6], dtype=np.int64),
        )
        # Repaired into the bin containing 1 MB (10^6 is the 1M_4M edge,
        # which opens that bin per the Darshan convention).
        assert hist[0, ACCESS_SIZE_BINS.labels.index("1M_4M")] == 1

    def test_leaves_consistent_rows_alone(self, rng):
        profile = BinProfile.from_dict({"1K_10K": 1.0})
        nops = np.array([100], dtype=np.int64)
        nbytes = np.array([100 * 5000], dtype=np.int64)
        hist = _consistent_histograms(rng, profile, nops, nbytes)
        assert hist[0, ACCESS_SIZE_BINS.labels.index("1K_10K")] == 100
