"""Darshan-log ingest: what each file row carries over from its record."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.darshan.constants import ModuleId
from repro.darshan.format import read_log, write_log
from repro.instrument import LogMaterializer
from repro.store.ingest import ingest_log_paths, ingest_logs
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator
from tests.conftest import SEED, assert_stores_identical

#: Ingest's row order within a log: module-major, record order.
ROW_MODULES = (ModuleId.POSIX, ModuleId.MPIIO, ModuleId.STDIO)


@pytest.fixture(scope="module")
def cori_logs(cori_machine):
    store = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5)).generate(
        SEED, shadows=True
    )
    return LogMaterializer(cori_machine, store).materialize_many(6), store


def test_record_ids_are_exact(cori_logs, cori_machine):
    """Each row keeps its record's 64-bit id, bit for bit.

    Record ids are path hashes over the whole uint64 range; a column
    built through float64 rounds every id above 2**53.
    """
    logs, store = cori_logs
    want = [
        rec.record_id
        for log in logs
        for module in ROW_MODULES
        for rec in log.records(module)
    ]
    assert any(i >= 1 << 63 for i in want) and any(i < 1 << 63 for i in want)
    ingested = ingest_logs(
        logs, "cori", cori_machine.mount_table(), domains=store.domains
    )
    assert ingested.files["record_id"].dtype == np.uint64
    assert ingested.files["record_id"].tolist() == want


@pytest.fixture(scope="module")
def cori_log_paths(cori_logs, cori_machine, tmp_path_factory):
    _, store = cori_logs
    mat = LogMaterializer(cori_machine, store)
    d = tmp_path_factory.mktemp("logs")
    paths = []
    for i, log in enumerate(mat.materialize_many(24)):
        p = os.path.join(d, f"log{i:03d}.darshan")
        write_log(log, p)
        paths.append(p)
    return paths, store.domains


def test_path_entry_matches_object_entry(cori_log_paths, cori_machine):
    """Reading from disk is a faithful round trip of the object path."""
    paths, domains = cori_log_paths
    mounts = cori_machine.mount_table()
    via_objects = ingest_logs(
        (read_log(p) for p in paths), "cori", mounts, domains=domains
    )
    via_paths = ingest_log_paths(paths, "cori", mounts, domains=domains)
    assert_stores_identical(via_objects, via_paths, "path entry")
