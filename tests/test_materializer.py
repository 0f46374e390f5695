"""LogMaterializer round trip: store rows -> DarshanLog -> disk -> store.

The log forensics example and the benchmark's log fixtures lean on
LogMaterializer: these pin the contract that a materialized log, written
with ``write_log`` and re-ingested, preserves each log's byte totals
(§3.1 unique accounting) and its module presence.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.darshan import read_log, validate_log
from repro.darshan.format import write_log
from repro.errors import StoreError
from repro.instrument.runtime import LogMaterializer
from repro.platforms.interfaces import IOInterface
from repro.store.ingest import ingest_logs


def _unique_totals(files: np.ndarray) -> tuple[int, int]:
    """(read, written) over POSIX+STDIO rows — the paper's accounting
    (MPI-IO traffic is counted once, through its POSIX shadow)."""
    unique = files["interface"] != int(IOInterface.MPIIO)
    return (
        int(files["bytes_read"][unique].sum()),
        int(files["bytes_written"][unique].sum()),
    )


class TestLogMaterializerRoundTrip:
    @pytest.fixture(scope="class")
    def materializer(self, cori_store_small, cori_machine):
        return LogMaterializer(cori_machine, cori_store_small)

    @pytest.fixture(scope="class")
    def sample_ids(self, materializer):
        ids = materializer.log_ids(limit=8)
        assert len(ids) > 0
        return [int(i) for i in ids]

    def test_materialized_totals_match_store_rows(
        self, materializer, sample_ids, cori_store_small
    ):
        for log_id in sample_ids:
            rows = cori_store_small.files[
                cori_store_small.files["log_id"] == log_id
            ]
            log = materializer.materialize(log_id)
            validate_log(log)
            assert log.total_bytes() == _unique_totals(rows)

    def test_materialized_modules_match_store_rows(
        self, materializer, sample_ids, cori_store_small
    ):
        for log_id in sample_ids:
            rows = cori_store_small.files[
                cori_store_small.files["log_id"] == log_id
            ]
            log = materializer.materialize(log_id)
            want = {
                IOInterface(int(i)).module for i in np.unique(rows["interface"])
            }
            have = set(log.modules)
            # LUSTRE layout records are additional metadata, not a data
            # module; everything the rows name must be present.
            assert want <= have

    def test_write_read_ingest_round_trip(
        self, materializer, sample_ids, cori_store_small, cori_machine, tmp_path
    ):
        logs = []
        for log_id in sample_ids:
            log = materializer.materialize(log_id)
            path = os.path.join(str(tmp_path), f"l{log_id}.rdshn")
            write_log(log, path)
            back = read_log(path)
            validate_log(back)
            assert back.total_bytes() == log.total_bytes()
            assert set(back.modules) == set(log.modules)
            logs.append((log_id, back))

        ingested = ingest_logs(
            [log for _, log in logs],
            "cori",
            cori_machine.mount_table(),
            domains=cori_store_small.domains,
        )
        # Per-log totals survive the full cycle: ingest assigns new log
        # ids in input order, so compare pairwise.
        for new_id, (orig_id, _) in enumerate(logs):
            orig_rows = cori_store_small.files[
                cori_store_small.files["log_id"] == orig_id
            ]
            new_rows = ingested.files[ingested.files["log_id"] == new_id]
            assert _unique_totals(new_rows) == _unique_totals(orig_rows)
            assert set(np.unique(new_rows["interface"]).tolist()) == set(
                np.unique(orig_rows["interface"]).tolist()
            )

    def test_unknown_log_id_is_typed(self, materializer):
        with pytest.raises(StoreError, match="no rows"):
            materializer.materialize(1 << 60)
