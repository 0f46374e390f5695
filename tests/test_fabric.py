"""Shard-fabric tests: shm hand-off, pickle budget, leak-proof cleanup.

The zero-copy contract has three enforceable edges: (1) only headers
cross the pool pipe — the pickled shard result stays under a fixed
byte budget no matter how many rows the shard produced; (2) every
shared-memory segment is unlinked by the time a sharded call returns,
on success *and* on failure (a worker raising, a reduce raising); (3)
the planner helpers behind the fan-out keep their determinism-bearing
edge cases. ``/dev/shm`` is inspected directly where the platform has
one, so a leak cannot hide behind the module's own bookkeeping.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import fabric, parallel
from repro.errors import ConfigurationError, ShardError
from repro.parallel import (
    contiguous_shards,
    resolve_jobs,
    run_sharded,
    usable_cores,
)
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs

pytestmark = pytest.mark.parallel

#: Upper bound on the pickled per-shard result crossing the pool pipe
#: when shm hand-off is active: a StoreRef (catalog names + table
#: headers), not row bytes. Intentionally far below the smallest real
#: shard payload (a 10k-row shard pickles to ~2.6 MB).
PIPE_BUDGET = 16 * 1024


def _shm_entries() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [n for n in os.listdir("/dev/shm") if fabric.SEGMENT_PREFIX in n]


def _make_store(nrows: int) -> RecordStore:
    files = empty_files(nrows)
    files["job_id"] = np.arange(nrows) % 7
    files["bytes_read"] = np.arange(nrows, dtype=np.int64) * 3
    files["rank"] = np.where(np.arange(nrows) % 5 == 0, -1, 0)
    jobs = empty_jobs(7)
    jobs["job_id"] = np.arange(7)
    jobs["nprocs"] = 16
    return RecordStore("summit", files, jobs, scale=1.0)


def _store_shard(payload) -> RecordStore:
    """Pool worker: build a shard store, or fail on request."""
    if payload == "boom":
        raise ValueError("injected shard failure")
    return _make_store(int(payload))


def _concat_reduce(shards):
    return RecordStore.concat(shards)


def _boom_reduce(shards):
    raise RuntimeError("injected reduce failure")


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave the segment registry and /dev/shm clean."""
    yield
    assert fabric.live_segments() == ()
    assert _shm_entries() == []


class TestExportImport:
    def test_tables_round_trip(self):
        arrays = [
            np.arange(1000, dtype=np.int64),
            np.linspace(0, 1, 33).reshape(11, 3),
            np.zeros(0, dtype=np.float32),
        ]
        ref = fabric.export_tables(arrays)
        views, shm = fabric.import_tables(ref)
        try:
            for a, v in zip(arrays, views):
                assert v.dtype == a.dtype and v.shape == a.shape
                np.testing.assert_array_equal(v, a)
        finally:
            fabric.release(shm)

    def test_structured_store_round_trip(self):
        store = _make_store(500)
        ref = fabric.export_store(store)
        out, shm = fabric.import_store(ref)
        try:
            np.testing.assert_array_equal(out.files, store.files)
            np.testing.assert_array_equal(out.jobs, store.jobs)
            assert out.platform == store.platform
            assert out.scale == store.scale
        finally:
            fabric.release(shm)

    def test_release_unlinks_even_when_close_is_blocked(self):
        """Unlink-before-close: a pinned buffer cannot turn into a leak.

        A raw memoryview slice holds a live buffer export, so the
        ``close()`` inside ``release`` raises ``BufferError`` — but the
        name must already be unlinked by then. (numpy views do *not*
        pin the mapping: ``np.ndarray(buffer=...)`` drops its buffer
        export after construction, so ``close()`` silently unmaps under
        them — which is why callers must copy before release, and why
        this test pins with a memoryview instead of an array.)
        """
        ref = fabric.export_tables([np.arange(64)])
        views, shm = fabric.import_tables(ref)
        del views
        pin = shm.buf[:8]
        fabric.release(shm)  # close blocked by the pin; unlink was first
        assert fabric.live_segments() == ()
        assert _shm_entries() == []
        pin.release()
        shm.close()  # now unmappable; the name is already gone

    def test_arena_round_trip(self):
        arena = fabric.Arena(np.int32, (100,))
        try:
            arena.spec.open()[25:50] = 7  # the worker-side write path
            fabric.drop_cached(arena.spec.name)
            assert arena.view()[25:50].sum() == 7 * 25
        finally:
            arena.close()


class TestPipeBudget:
    def test_encoded_shard_result_pickles_small(self):
        """Regression guard: only headers cross the pipe with shm on."""
        task = (_store_shard, 0, 200_000, False, True)
        status, shard_id, value, records = parallel._invoke(task)
        try:
            assert status == "ok"
            assert isinstance(value, fabric.StoreRef)
            blob = pickle.dumps((status, shard_id, value, records))
            assert len(blob) < PIPE_BUDGET, len(blob)
            # And the bytes it replaced really were payload-sized.
            assert _make_store(200_000).files.nbytes > 100 * PIPE_BUDGET
        finally:
            fabric.unlink_by_name(value.tables.name)


class TestShardedCleanup:
    def test_success_path_unlinks_everything(self):
        merged = run_sharded(
            _store_shard, [100, 200, 300], jobs=2, shm=True,
            reduce=_concat_reduce,
        )
        assert len(merged.files) == 600
        # reduce copied: the merged store must not alias dead shm.
        assert int(merged.files["bytes_read"][50]) == 150

    def test_failing_shard_unlinks_survivors(self):
        with pytest.raises(ShardError) as err:
            run_sharded(
                _store_shard, [100, "boom", 300], jobs=2, shm=True,
                reduce=_concat_reduce,
            )
        assert "injected shard failure" in str(err.value)

    def test_failing_reduce_unlinks_everything(self):
        with pytest.raises(RuntimeError):
            run_sharded(
                _store_shard, [100, 200], jobs=2, shm=True,
                reduce=_boom_reduce,
            )

    def test_shm_requires_reduce(self):
        with pytest.raises(ConfigurationError):
            run_sharded(_store_shard, [10, 10], jobs=2, shm=True)

    def test_inline_path_skips_shm(self):
        out = run_sharded(
            _store_shard, [50, 60], jobs=1, shm=True, reduce=list
        )
        assert [len(s.files) for s in out] == [50, 60]


class TestResolveJobs:
    def test_zero_means_usable_cores(self):
        assert resolve_jobs(0) == usable_cores()

    def test_usable_cores_prefers_affinity_mask(self, monkeypatch):
        """Under CPU pinning, jobs=0 sizes to the allocation, not the box."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cores() == 2
        assert resolve_jobs(0) == 2

    def test_usable_cores_falls_back_without_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cores() == 5

    def test_resolve_jobs_zero_without_affinity_api(self, monkeypatch):
        """jobs=0 on macOS/Windows (no sched_getaffinity) must size to
        os.cpu_count(), not crash with AttributeError."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert resolve_jobs(0) == 7

    def test_resolve_jobs_zero_cpu_count_unknown(self, monkeypatch):
        """Even cpu_count() == None (containers, exotic kernels) must
        resolve to one worker rather than zero."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(0) == 1

    def test_validation(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)
        with pytest.raises(ConfigurationError):
            resolve_jobs(True)
        with pytest.raises(ConfigurationError):
            resolve_jobs(2.0)


class TestContiguousShards:
    def test_all_zero_costs_split_by_count(self):
        slices = contiguous_shards([0, 0, 0, 0, 0, 0], 3)
        assert [s.start for s in slices] == [0, 2, 4]
        assert [s.stop for s in slices] == [2, 4, 6]

    def test_more_shards_than_units(self):
        slices = contiguous_shards([5.0, 1.0], 8)
        assert len(slices) == 2
        assert slices == [slice(0, 1), slice(1, 2)]

    def test_single_giant_unit_absorbs_its_shard(self):
        slices = contiguous_shards([1, 1, 1000, 1, 1], 3)
        # Contiguity forces neighbors into the giant unit's shard; every
        # unit is covered exactly once, in order.
        assert slices[0].start == 0 and slices[-1].stop == 5
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(5))

    def test_empty_costs(self):
        assert contiguous_shards([], 4) == []
