"""Darshan-log ingest: what each file row carries over from its record."""

from __future__ import annotations

import numpy as np
import pytest

from repro.darshan.constants import ModuleId
from repro.instrument import LogMaterializer
from repro.store.ingest import ingest_logs
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator
from tests.conftest import SEED

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
