"""Differential proof: sharded generation/ingest ≡ serial, bit for bit.

The pipeline's determinism contract (DESIGN.md §8) is that the worker
count is *unobservable*: ``jobs=N`` must produce the same store as
``jobs=1`` — same rows, same order after canonicalization, same catalogs
— and therefore identical outputs from every analysis entry point. This
suite is the lock: it regenerates the fixture population at jobs ∈
{2, 4, 7}, compares stores in canonical order, and replays all analysis
entry points through each store's own AnalysisContext.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.darshan.format import write_log
from repro.instrument import LogMaterializer
from repro.store.ingest import ingest_log_paths, ingest_logs
from repro.store.merge import canonicalize
from repro.workloads.generator import (
    GeneratorConfig,
    WorkloadGenerator,
    generate_with_shadows,
)
from tests.conftest import SEED, SMALL_SCALE
from tests.test_analysis_equivalence import CASES, assert_equivalent

pytestmark = pytest.mark.parallel

JOBS_GRID = (2, 4, 7)


def assert_stores_identical(a, b, where="store"):
    """Byte-identical stores in canonical row order."""
    ca, cb = canonicalize(a), canonicalize(b)
    assert ca.platform == cb.platform, where
    assert ca.scale == cb.scale, where
    assert ca.domains == cb.domains, f"{where}: domain catalogs differ"
    assert ca.extensions == cb.extensions, f"{where}: extension catalogs differ"
    np.testing.assert_array_equal(ca.files, cb.files, err_msg=f"{where}.files")
    np.testing.assert_array_equal(ca.jobs, cb.jobs, err_msg=f"{where}.jobs")


@pytest.fixture(scope="module", params=JOBS_GRID)
def summit_pair(request, summit_store_small):
    """(serial store, jobs=N store) for the Summit fixture population."""
    gen = WorkloadGenerator("summit", GeneratorConfig(scale=SMALL_SCALE))
    parallel = generate_with_shadows(gen, SEED, jobs=request.param)
    return summit_store_small, parallel, request.param


class TestGenerateDifferential:
    def test_stores_identical(self, summit_pair):
        serial, parallel, jobs = summit_pair
        assert_stores_identical(serial, parallel, f"jobs={jobs}")

    def test_raw_row_order_identical(self, summit_pair):
        """Contiguous sharding reproduces even the pre-sort row order."""
        serial, parallel, jobs = summit_pair
        np.testing.assert_array_equal(serial.files, parallel.files)
        np.testing.assert_array_equal(serial.jobs, parallel.jobs)

    @pytest.mark.parametrize(
        "name,fast_fn,legacy_fn", CASES, ids=[c[0] for c in CASES]
    )
    def test_analysis_outputs_identical(self, summit_pair, name, fast_fn, legacy_fn):
        """Every analysis entry point, through each store's own context."""
        serial, parallel, jobs = summit_pair
        del legacy_fn  # the legacy twin is pinned by test_analysis_equivalence
        assert_equivalent(fast_fn(serial), fast_fn(parallel), f"{name}[jobs={jobs}]")

    def test_cori_jobs2(self, cori_store_small):
        gen = WorkloadGenerator("cori", GeneratorConfig(scale=SMALL_SCALE))
        parallel = generate_with_shadows(gen, SEED, jobs=2)
        assert_stores_identical(cori_store_small, parallel, "cori jobs=2")

    def test_jobs_zero_means_all_cores(self):
        gen = WorkloadGenerator("summit", GeneratorConfig(scale=1e-4))
        a = generate_with_shadows(gen, SEED, jobs=1)
        b = generate_with_shadows(gen, SEED, jobs=0)
        assert_stores_identical(a, b, "jobs=0")


class TestIngestDifferential:
    @pytest.fixture(scope="class")
    def log_paths(self, tmp_path_factory, cori_machine):
        gen = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5))
        store = generate_with_shadows(gen, SEED)
        mat = LogMaterializer(cori_machine, store)
        d = tmp_path_factory.mktemp("logs")
        paths = []
        for i, log in enumerate(mat.materialize_many(24)):
            p = os.path.join(d, f"log{i:03d}.darshan")
            write_log(log, p)
            paths.append(p)
        return paths, store.domains

    @pytest.mark.parametrize("jobs", JOBS_GRID)
    def test_sharded_ingest_matches_serial(self, log_paths, cori_machine, jobs):
        paths, domains = log_paths
        mounts = cori_machine.mount_table()
        serial = ingest_log_paths(paths, "cori", mounts, domains=domains)
        sharded = ingest_log_paths(
            paths, "cori", mounts, domains=domains, jobs=jobs
        )
        assert_stores_identical(serial, sharded, f"ingest jobs={jobs}")

    def test_path_entry_matches_object_entry(self, log_paths, cori_machine):
        """Reading from disk is a faithful round trip of the object path."""
        from repro.darshan.format import read_log

        paths, domains = log_paths
        mounts = cori_machine.mount_table()
        via_objects = ingest_logs(
            (read_log(p) for p in paths), "cori", mounts, domains=domains
        )
        via_paths = ingest_log_paths(paths, "cori", mounts, domains=domains)
        assert_stores_identical(via_objects, via_paths, "path entry")


class TestCliJobsFlag:
    def test_generate_jobs_flag_identical_store(self, tmp_path):
        from repro.cli import main
        from repro.store.io import load_store

        out1 = str(tmp_path / "serial.npz")
        out2 = str(tmp_path / "sharded.npz")
        args = ["generate", "--platform", "summit", "--scale", "1e-4"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--jobs", "2", "--out", out2]) == 0
        assert_stores_identical(load_store(out1), load_store(out2), "cli --jobs")
