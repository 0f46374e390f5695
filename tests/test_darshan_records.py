"""Tests for repro.darshan.records and log objects."""

import numpy as np
import pytest

from repro.darshan.constants import ModuleId
from repro.darshan.log import DarshanLog
from repro.darshan.records import (
    SHARED_FILE_RANK,
    FileRecord,
    JobRecord,
    NameRecord,
    iter_size_bins,
    record_id_for_path,
)


class TestJobRecord:
    def test_runtime(self):
        job = JobRecord(1, 2, 4, 100.0, 250.0)
        assert job.runtime == 150.0

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ValueError):
            JobRecord(1, 2, 0, 0.0, 1.0)

    def test_rejects_time_travel(self):
        with pytest.raises(ValueError):
            JobRecord(1, 2, 4, 10.0, 5.0)


class TestNameRecord:
    def test_for_path_hashes_stably(self):
        a = NameRecord.for_path("/gpfs/alpine/x.h5")
        b = NameRecord.for_path("/gpfs/alpine/x.h5")
        assert a.record_id == b.record_id == record_id_for_path("/gpfs/alpine/x.h5")

    def test_distinct_paths_distinct_ids(self):
        ids = {record_id_for_path(f"/p/{i}") for i in range(1000)}
        assert len(ids) == 1000


class TestFileRecord:
    def test_default_zeroed(self):
        rec = FileRecord(ModuleId.POSIX, 42)
        assert rec.bytes_read == 0 and rec.bytes_written == 0
        assert rec.rank == SHARED_FILE_RANK and rec.is_shared

    def test_named_get_set_add(self):
        rec = FileRecord(ModuleId.POSIX, 42, rank=3)
        rec.set("BYTES_READ", 100)
        rec.add("BYTES_READ", 50)
        assert rec["POSIX_BYTES_READ"] == 150
        rec["F_READ_TIME"] = 2.0
        assert rec.read_time == 2.0
        assert not rec.is_shared

    @pytest.mark.parametrize("module", [ModuleId.POSIX, ModuleId.MPIIO, ModuleId.STDIO])
    def test_bare_and_qualified_names_share_a_slot(self, module):
        rec = FileRecord(module, 42)
        rec.set("BYTES_WRITTEN", 9)
        rec.add(f"{module.prefix}_BYTES_WRITTEN", 1)
        assert rec.get("BYTES_WRITTEN") == rec[f"{module.prefix}_BYTES_WRITTEN"] == 10
        assert isinstance(rec.get("BYTES_WRITTEN"), int)
        assert rec.named_counters()["BYTES_WRITTEN"] == 10

    def test_float_names_reach_the_fcounters(self):
        rec = FileRecord(ModuleId.MPIIO, 42)
        rec.set("MPIIO_F_META_TIME", 1.25)
        rec.add("F_META_TIME", 0.5)
        assert rec.get("F_META_TIME") == 1.75
        assert isinstance(rec.get("MPIIO_F_META_TIME"), float)
        assert not rec.counters.any()

    @pytest.mark.parametrize(
        "name", ["NOT_A_COUNTER", "SIZE_READ_0_100", "MPIIO_BYTES_READ", "STDIO_"]
    )
    def test_unknown_names_raise_keyerror(self, name):
        rec = FileRecord(ModuleId.STDIO, 42)
        for op in (rec.get, lambda n: rec.set(n, 1), lambda n: rec.add(n, 1)):
            with pytest.raises(KeyError, match="STDIO has no counter"):
                op(name)
        assert not rec.counters.any() and not rec.fcounters.any()

    def test_bandwidths(self):
        rec = FileRecord(ModuleId.STDIO, 1)
        rec.set("BYTES_WRITTEN", 10**6)
        rec.set("F_WRITE_TIME", 2.0)
        assert rec.write_bandwidth() == 500_000.0
        assert rec.read_bandwidth() == 0.0

    def test_transfer_size(self):
        rec = FileRecord(ModuleId.POSIX, 1)
        rec.set("BYTES_READ", 7)
        rec.set("BYTES_WRITTEN", 5)
        assert rec.transfer_size() == 12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FileRecord(ModuleId.POSIX, 1, counters=np.zeros(3, dtype=np.int64))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            FileRecord(ModuleId.POSIX, 1, rank=-2)

    def test_iter_size_bins(self):
        rec = FileRecord(ModuleId.POSIX, 1)
        rec.set("SIZE_READ_1K_10K", 5)
        bins = dict(iter_size_bins(rec, "read"))
        assert bins["1K_10K"] == 5
        assert len(bins) == 10

    def test_iter_size_bins_stdio_raises(self):
        rec = FileRecord(ModuleId.STDIO, 1)
        with pytest.raises(KeyError):
            list(iter_size_bins(rec, "read"))

    def test_iter_size_bins_bad_direction(self):
        rec = FileRecord(ModuleId.POSIX, 1)
        with pytest.raises(ValueError):
            list(iter_size_bins(rec, "sideways"))


class TestDarshanLog:
    def _log(self):
        return DarshanLog(JobRecord(9, 1, 2, 0.0, 10.0, platform="summit"))

    def test_requires_name_before_record(self):
        log = self._log()
        with pytest.raises(KeyError):
            log.add_record(FileRecord(ModuleId.POSIX, 123))

    def test_name_rebind_conflict(self):
        log = self._log()
        log.register_name(NameRecord(1, "/a"))
        log.register_name(NameRecord(1, "/a"))  # idempotent ok
        with pytest.raises(ValueError):
            log.register_name(NameRecord(1, "/b"))

    def test_total_bytes_skips_mpiio(self):
        """§3.1: MPI-IO traffic is counted via its POSIX record."""
        log = self._log()
        log.register_name(NameRecord(1, "/a"))
        posix = FileRecord(ModuleId.POSIX, 1)
        posix.set("BYTES_READ", 100)
        posix.set("F_READ_TIME", 1.0)
        mpiio = FileRecord(ModuleId.MPIIO, 1)
        mpiio.set("BYTES_READ", 100)
        log.add_record(posix)
        log.add_record(mpiio)
        assert log.total_bytes() == (100, 0)

    def test_nfiles_unique_by_record_id(self):
        log = self._log()
        log.register_name(NameRecord(1, "/a"))
        log.add_record(FileRecord(ModuleId.POSIX, 1))
        log.add_record(FileRecord(ModuleId.MPIIO, 1))
        assert log.nfiles() == 1

    def test_modules_ordering(self):
        log = self._log()
        for rid, module in ((1, ModuleId.STDIO), (2, ModuleId.POSIX)):
            log.register_name(NameRecord(rid, f"/f{rid}"))
            log.add_record(FileRecord(module, rid))
        assert log.modules == (ModuleId.POSIX, ModuleId.STDIO)
