"""Unit tests for the shared AnalysisContext layer.

Covers the cache-invalidation contract from DESIGN.md §"Analysis
pipeline architecture": masks/derived columns are computed once per
store generation, mutation bumps the generation, and a stale context
never serves its cached index arrays.
"""

from __future__ import annotations

import copy
import gc
import pickle
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_INSYSTEM,
    LAYER_OTHER,
    LAYER_PFS,
    empty_files,
    empty_jobs,
)

LAYERS = (LAYER_PFS, LAYER_INSYSTEM, LAYER_OTHER)
INTERFACES = tuple(int(i) for i in IOInterface)


def build_store(rows) -> RecordStore:
    """A tiny store from (layer, interface, rank, bytes_read, bytes_written)."""
    files = empty_files(len(rows))
    for i, (layer, iface, rank, br, bw) in enumerate(rows):
        files[i]["layer"] = layer
        files[i]["interface"] = iface
        files[i]["rank"] = rank
        files[i]["bytes_read"] = br
        files[i]["bytes_written"] = bw
        files[i]["job_id"] = i
    jobs = empty_jobs(1)
    jobs[0]["job_id"] = 0
    return RecordStore("summit", files, jobs)


row_strategy = st.tuples(
    st.sampled_from(LAYERS),
    st.sampled_from(INTERFACES),
    st.integers(min_value=-1, max_value=8),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
)


class TestMaskAndIndexCaching:
    def test_masks_match_direct_predicates(self):
        store = build_store(
            [
                (LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0),
                (LAYER_INSYSTEM, int(IOInterface.STDIO), 3, 0, 7),
                (LAYER_PFS, int(IOInterface.MPIIO), -1, 5, 5),
            ]
        )
        ctx = store.analysis()
        f = store.files
        np.testing.assert_array_equal(
            ctx.mask("unique"), f["interface"] != int(IOInterface.MPIIO)
        )
        np.testing.assert_array_equal(ctx.mask("shared"), f["rank"] == -1)
        np.testing.assert_array_equal(
            ctx.mask(("layer", LAYER_PFS)), f["layer"] == LAYER_PFS
        )
        np.testing.assert_array_equal(
            ctx.mask(("pos", "bytes_read")), f["bytes_read"] > 0
        )

    def test_mask_and_idx_are_computed_once(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = store.analysis()
        assert ctx.mask("unique") is ctx.mask("unique")
        assert ctx.idx("unique", "shared") is ctx.idx("unique", "shared")

    def test_idx_is_order_insensitive(self):
        store = build_store(
            [
                (LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1),
                (LAYER_INSYSTEM, int(IOInterface.STDIO), 0, 1, 1),
            ]
        )
        ctx = store.analysis()
        a = ctx.idx(("layer", LAYER_PFS), ("interface", int(IOInterface.POSIX)))
        b = ctx.idx(("interface", int(IOInterface.POSIX)), ("layer", LAYER_PFS))
        assert a is b

    def test_unknown_mask_key_raises(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        with pytest.raises(AnalysisError):
            store.analysis().mask("no-such-mask")

    def test_idx_requires_a_key(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        with pytest.raises(AnalysisError):
            store.analysis().idx()

    @given(st.lists(row_strategy, min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_idx_equals_flatnonzero_of_predicate(self, rows):
        store = build_store(rows)
        ctx = store.analysis()
        f = store.files
        for layer in (LAYER_PFS, LAYER_INSYSTEM):
            expect = np.flatnonzero(
                (f["interface"] != int(IOInterface.MPIIO)) & (f["layer"] == layer)
            )
            np.testing.assert_array_equal(
                ctx.idx("unique", ("layer", layer)), expect
            )

    @given(st.lists(row_strategy, min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_derived_columns_match_store_methods(self, rows):
        store = build_store(rows)
        ctx = store.analysis()
        np.testing.assert_array_equal(ctx.transfer_sizes(), store.transfer_sizes())
        np.testing.assert_array_equal(ctx.opclass(), store.opclass())
        np.testing.assert_array_equal(
            ctx.bandwidth("read"), store.read_bandwidth()
        )
        np.testing.assert_array_equal(
            ctx.bandwidth("write"), store.write_bandwidth()
        )

    def test_gather_and_positive(self):
        store = build_store(
            [
                (LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0),
                (LAYER_PFS, int(IOInterface.POSIX), -1, 0, 3),
                (LAYER_PFS, int(IOInterface.STDIO), -1, 2, 0),
            ]
        )
        ctx = store.analysis()
        keys = (("layer", LAYER_PFS), ("interface", int(IOInterface.POSIX)))
        np.testing.assert_array_equal(ctx.gather("bytes_read", *keys), [10, 0])
        np.testing.assert_array_equal(ctx.positive("bytes_read", *keys), [10])
        # Gathers are not memoized; what they read is: the one cached
        # column and the one cached index array.
        column, idx = ctx.column("bytes_read"), ctx.idx(*keys)
        hits, misses = ctx.cache_counts()
        ctx.positive("bytes_read", *keys)
        assert ctx.cache_counts() == (hits + 2, misses)
        assert ctx.column("bytes_read") is column and ctx.idx(*keys) is idx
        assert "gather" not in ctx.cache_info()
        assert "positive" not in ctx.cache_info()


class TestColumnCache:
    """``column()`` is one contiguous copy per field, kept for the generation."""

    ROWS = [
        (LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0),
        (LAYER_INSYSTEM, int(IOInterface.STDIO), 3, 0, 7),
        (LAYER_PFS, int(IOInterface.MPIIO), -1, 5, 5),
    ]

    def test_column_is_a_cached_contiguous_copy(self):
        store = build_store(self.ROWS)
        ctx = store.analysis()
        for name in ("bytes_read", "layer", "rank", "record_id"):
            column = ctx.column(name)
            assert column.flags.c_contiguous
            assert column.dtype == store.files.dtype[name]
            np.testing.assert_array_equal(column, store.files[name])
            assert ctx.column(name) is column
        assert not store.files["bytes_read"].flags.c_contiguous

    def test_warm_column_grows_with_append(self, monkeypatch):
        import repro.analysis.context as context_module

        fallbacks = []
        real_event = context_module.trace_event

        def record_event(name, *args, **kwargs):
            fallbacks.append(name)
            return real_event(name, *args, **kwargs)

        monkeypatch.setattr(context_module, "trace_event", record_event)
        store = build_store(self.ROWS)
        ctx = store.analysis()
        ctx.column("bytes_read")
        tail = build_store(
            [(LAYER_PFS, int(IOInterface.POSIX), 0, 99, 1)] * 2
        ).files
        store.append(tail)
        assert not ctx.stale and store.analysis() is ctx
        hits, misses = ctx.cache_counts()
        column = ctx.column("bytes_read")
        assert ctx.cache_counts() == (hits + 1, misses)
        assert column.flags.c_contiguous
        np.testing.assert_array_equal(column, store.files["bytes_read"])
        assert column.tolist() == [10, 0, 5, 99, 99]
        assert "analysis.delta_fallback" not in fallbacks

    def test_gathers_racing_appends_see_one_generation(self):
        """Readers gather while another thread appends: every gather is
        a prefix of the final column, never a mix of two generations."""
        import sys

        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), 0, 1, 0)])
        ctx = store.analysis()
        ctx.gather("bytes_read", "unique")
        appends = 150
        errors: list[BaseException] = []
        results: list[list[int]] = []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    results.append(ctx.gather("bytes_read", "unique").tolist())
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for t in readers:
                t.start()
            for i in range(appends):
                store.append(
                    build_store(
                        [(LAYER_PFS, int(IOInterface.POSIX), 0, i + 2, 0)]
                    ).files
                )
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for t in readers:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in readers)
        assert not errors, errors[0]
        final = list(range(1, appends + 2))
        assert ctx.gather("bytes_read", "unique").tolist() == final
        assert results and all(r == final[: len(r)] for r in results)

    @given(st.lists(row_strategy, min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_hist_sum_equals_direct_sum(self, rows):
        store = build_store(rows)
        rng = np.random.default_rng(len(rows))
        store.files["read_hist"] = rng.integers(0, 1000, (len(rows), 10))
        ctx = store.analysis()
        for keys in (("unique",), (("layer", LAYER_PFS), "shared")):
            idx = ctx.idx(*keys)
            np.testing.assert_array_equal(
                ctx.hist_sum("read_hist", *keys),
                store.files["read_hist"][idx].sum(axis=0),
            )


class TestGenerationInvalidation:
    def test_analysis_accessor_reuses_one_context(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        assert store.analysis() is store.analysis()

    def test_invalidate_hands_out_a_fresh_context(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        old = store.analysis()
        store.invalidate()
        new = store.analysis()
        assert new is not old
        assert new.generation == store.generation == old.generation + 1

    def test_stale_context_never_serves_index_arrays(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = store.analysis()
        ctx.idx("unique")  # warm the cache
        store.invalidate()
        assert ctx.stale
        for access in (
            lambda: ctx.idx("unique"),
            lambda: ctx.mask("shared"),
            lambda: ctx.column("bytes_read"),
            lambda: ctx.transfer_sizes(),
            lambda: ctx.cached("x", lambda: 1),
        ):
            with pytest.raises(AnalysisError, match="stale"):
                access()

    def test_extend_busts_the_cache_and_new_rows_are_seen(self):
        """Rows written into the table in place, then ``invalidate()``."""
        store = build_store(
            [(LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0)]
        )
        ctx = store.analysis()
        assert len(ctx.idx("unique")) == 1
        extra = empty_files(1)
        extra[0]["layer"] = LAYER_PFS
        extra[0]["interface"] = int(IOInterface.STDIO)
        store.files = np.concatenate([store.files, extra])
        store.invalidate()
        with pytest.raises(AnalysisError, match="stale"):
            ctx.idx("unique")
        assert len(store.analysis().idx("unique")) == 2

    def test_extend_validates_dtype(self):
        """Growing a store through ``append`` checks the row dtype."""
        from repro.errors import StoreError

        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        with pytest.raises(StoreError):
            store.append(np.zeros(2, dtype=np.int64))

    def test_memoized_results_do_not_survive_invalidation(self):
        from repro.analysis import layer_volumes

        store = build_store(
            [
                (LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0),
                (LAYER_INSYSTEM, int(IOInterface.STDIO), 0, 0, 5),
            ]
        )
        before = layer_volumes(store)
        extra = empty_files(1)
        extra[0]["layer"] = LAYER_PFS
        extra[0]["interface"] = int(IOInterface.POSIX)
        extra[0]["bytes_read"] = 100
        store.files = np.concatenate([store.files, extra])
        store.invalidate()
        after = layer_volumes(store)
        assert after is not before
        assert after.pfs.files == before.pfs.files + 1
        assert after.pfs.bytes_read == before.pfs.bytes_read + 100

    @given(st.lists(row_strategy, min_size=1, max_size=20), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_generation_counts_every_mutation(self, rows, nmutations):
        store = build_store(rows)
        contexts = [store.analysis()]
        for _ in range(nmutations):
            store.invalidate()
            contexts.append(store.analysis())
        assert store.generation == nmutations
        # All but the newest context are stale; the newest still serves.
        assert all(c.stale for c in contexts[:-1])
        assert not contexts[-1].stale
        contexts[-1].idx("unique")


class TestResolve:
    """A store's one context per generation: shared, refused when stale."""

    def test_resolve_rejects_stale_context(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = store.analysis()
        store.invalidate()
        with pytest.raises(AnalysisError, match="stale"):
            ctx.idx("unique")
        assert store.analysis() is not ctx

    def test_concurrent_callers_get_one_context(self, monkeypatch):
        """Threads released together after ``invalidate()`` all get the
        same new context, even when building one is slow."""
        build = AnalysisContext.__init__

        def slow_build(ctx, store):
            time.sleep(0.01)  # widen the gap between check and assignment
            build(ctx, store)

        monkeypatch.setattr(AnalysisContext, "__init__", slow_build)
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        stale = store.analysis()
        store.invalidate()
        barrier = threading.Barrier(8)

        def get():
            barrier.wait()
            return store.analysis()

        with ThreadPoolExecutor(8) as pool:
            contexts = [f.result() for f in [pool.submit(get) for _ in range(8)]]
        assert contexts[0] is not stale and not contexts[0].stale
        assert all(c is contexts[0] for c in contexts)
        assert store.analysis() is contexts[0]

    def test_cache_info_reports_kinds(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = store.analysis()
        ctx.idx("unique", "shared")
        info = ctx.cache_info()
        assert info["idx"] == 1
        assert info["mask"] == 2


class TestContextConstruction:
    def test_context_is_lazy(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = AnalysisContext(store)
        assert ctx.cache_info() == {}

    def test_repr_mentions_state(self):
        store = build_store([(LAYER_PFS, int(IOInterface.POSIX), -1, 1, 1)])
        ctx = store.analysis()
        assert "fresh" in repr(ctx)
        store.invalidate()
        assert "stale" in repr(ctx)


class TestStoreLifetime:
    """The context holds its store weakly: no store <-> context cycle."""

    ROWS = [
        (LAYER_PFS, int(IOInterface.POSIX), -1, 10, 0),
        (LAYER_INSYSTEM, int(IOInterface.STDIO), 0, 0, 20),
    ]

    def test_dropped_store_is_freed_without_cyclic_gc(self):
        from repro.api import run_query

        gc.collect()
        gc.disable()
        try:
            store = build_store(self.ROWS)
            run_query(store, "table3")
            assert store.analysis().cache_info()
            ref = weakref.ref(store)
            del store
            assert ref() is None, "store kept alive by a reference cycle"
        finally:
            gc.enable()

    def test_context_of_a_dropped_store_raises(self):
        store = build_store(self.ROWS)
        ctx = store.analysis()
        ctx.idx("unique")
        del store
        with pytest.raises(AnalysisError, match="outlived its RecordStore"):
            ctx.store
        with pytest.raises(AnalysisError, match="outlived its RecordStore"):
            ctx.idx("unique")
        assert "store gone" in repr(ctx)

    @pytest.mark.parametrize(
        "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy]
    )
    def test_store_round_trips_with_its_warm_context(self, clone):
        store = build_store(self.ROWS)
        column = store.analysis().column("bytes_read")
        idx = store.analysis().idx("unique")
        restored = clone(store)
        ctx = restored.analysis()
        assert ctx is restored._analysis and ctx.store is restored
        hits, misses = ctx.cache_counts()
        assert ctx.column("bytes_read").tolist() == column.tolist()
        assert ctx.idx("unique").tolist() == idx.tolist()
        assert ctx.cache_counts() == (hits + 2, misses)
        # The restored context holds the restored store weakly too.
        ref = weakref.ref(restored)
        gc.disable()
        try:
            del restored, ctx
            assert ref() is None
        finally:
            gc.enable()
