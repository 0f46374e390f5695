"""Differential proof: sharded ingest ≡ serial, bit for bit.

The ingest pipeline's determinism contract (DESIGN.md §8) is that the
worker count is *unobservable*: ``jobs=N`` must produce the same store
as ``jobs=1`` — same rows, same order after canonicalization, same
catalogs. This suite is the lock: it ingests one set of serialized logs
at jobs ∈ {2, 4, 7} and compares stores in canonical order. (The
what-if sweep's worker-count invariance lives in tests/test_whatif.py.)
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.darshan.format import write_log
from repro.instrument import LogMaterializer
from repro.store.ingest import ingest_log_paths, ingest_logs
from repro.store.merge import canonicalize
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator
from tests.conftest import SEED

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


class TestIngestDifferential:
    @pytest.fixture(scope="class")
    def log_paths(self, tmp_path_factory, cori_machine):
        gen = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5))
        store = gen.generate(SEED, shadows=True)
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
