"""Process-pool fabric tests: arenas, tracker ownership, fan-out, job counts.

Three enforceable edges: (1) every sweep arena is unlinked when its
owner closes it, even with the mapping pinned, and no pool worker's
mapping takes unlink ownership — a pooled sweep must exit without a
``resource_tracker`` complaint; (2) ``run_sharded`` returns shard
results in shard order and names a failing shard; (3) ``--jobs``
values resolve to a worker count, and 0 to the usable cores.
``/dev/shm`` is inspected directly where the platform has one, so a
leak cannot hide behind the module's own bookkeeping.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import fabric
from repro.errors import ConfigurationError, ShardError
from repro.parallel import resolve_jobs, run_sharded, usable_cores
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs

pytestmark = pytest.mark.parallel


def _shm_entries() -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [n for n in os.listdir("/dev/shm") if fabric.SEGMENT_PREFIX in n]


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave the segment registry and /dev/shm clean."""
    yield
    assert fabric.live_segments() == ()
    assert _shm_entries() == []


class TestArena:
    def test_arena_round_trip(self):
        arena = fabric.Arena(np.int32, (100,))
        try:
            arena.spec.open()[25:50] = 7  # the worker-side write path
            fabric.drop_cached(arena.spec.name)
            assert arena.view()[25:50].sum() == 7 * 25
        finally:
            arena.close()

    def test_close_unlinks_even_when_blocked(self):
        """Unlink-before-close: a pinned buffer cannot turn into a leak.

        A raw memoryview slice holds a live buffer export, so the
        mapping's ``close()`` raises ``BufferError`` — but the name must
        already be unlinked by then. (numpy views do *not* pin the
        mapping, which is why this test pins with a memoryview.)
        """
        arena = fabric.Arena(np.int64, (64,))
        shm = arena._shm
        pin = shm.buf[:8]
        arena.close()  # close blocked by the pin; unlink was first
        assert fabric.live_segments() == ()
        assert _shm_entries() == []
        pin.release()
        shm.close()  # now unmappable; the name is already gone


def _store_shard(payload) -> RecordStore:
    """Pool worker: build a shard store, or fail on request."""
    if payload == "boom":
        raise ValueError("injected shard failure")
    nrows = int(payload)
    files = empty_files(nrows)
    files["bytes_read"] = np.arange(nrows, dtype=np.int64) * 3
    return RecordStore("summit", files, empty_jobs(0), scale=1.0)


class TestShardedRun:
    def test_results_in_shard_order(self):
        """Shard stores come back through the pipe, in payload order."""
        out = run_sharded(_store_shard, [100, 200, 300], jobs=2)
        assert [len(s.files) for s in out] == [100, 200, 300]
        assert int(out[1].files["bytes_read"][50]) == 150

    def test_failing_shard_raises_shard_error(self):
        with pytest.raises(ShardError) as err:
            run_sharded(_store_shard, [100, "boom", 300], jobs=2)
        assert err.value.shard_id == 1
        assert "injected shard failure" in str(err.value)


#: A warm pool forked before anything started the resource tracker,
#: then two pooled sweeps over a shared-memory arena. A worker whose
#: mapping registers with a worker-private tracker makes that tracker
#: unlink the arena at exit and warn about "leaked" segments.
_TWO_SWEEPS = textwrap.dedent("""
    from repro.parallel import get_pool
    from repro.store.recordstore import RecordStore
    from repro.whatif import sweep
    from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

    store = WorkloadGenerator("summit", GeneratorConfig(scale=1e-4)).generate(7)
    store = RecordStore(store.platform, store.files[:20000], store.jobs,
                        domains=store.domains, extensions=store.extensions,
                        scale=store.scale)
    get_pool(2)
    points = [{"factor": 0.5}, {"factor": 2.0}]
    first = sweep(store, "stripe", points, jobs=2)
    second = sweep(store, "stripe", points, jobs=2)
    assert first == second
""")


class TestTrackerOwnership:
    def test_pooled_sweeps_leave_no_tracker_warnings(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_SWEEPS],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


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
