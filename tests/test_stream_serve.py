"""Serve-layer behavior across appends: warm folds, cold everything else.

The engine's result cache keys on store generation, so an append orphans
every entry. For foldable queries :meth:`QueryEngine.refresh` re-warms
the cache from the delta-folded analysis memo (cheap); non-foldable
queries must genuinely recompute. Both sides of that contract are pinned
here, plus a stress-marked run proving the cache hit rate stays positive
across a long append schedule.
"""

from __future__ import annotations

import pytest

from repro.analysis import dataset_summary, layer_volumes
from repro.platforms import summit
from repro.serve.engine import QueryEngine
from repro.stream import StreamIngestor

from tests.conftest import empty_like, fresh_store

pytestmark = pytest.mark.stream

FOLDABLE = ("table3", "table6", "fig4", "fig5", "fig6", "fig8")


@pytest.fixture(scope="module")
def stream_logs(summit_logs):
    return summit_logs[:12]


@pytest.fixture()
def live(summit_store_small):
    return empty_like(summit_store_small)


def test_refresh_rewarns_only_requested_foldables(live, stream_logs):
    ingestor = StreamIngestor(live, summit().mount_table())
    ingestor.apply(stream_logs[:6])
    with QueryEngine(live, max_workers=2) as engine:
        engine.query("table3")
        engine.query("table6")
        engine.query("table2")  # cached but not foldable
        ingestor.apply(stream_logs[6:])
        assert engine.refresh() == 2  # table3 + table6, never table2
        counters = engine.metrics.snapshot()["counters"]
        assert counters["refreshed"] == 2
        before = engine.metrics.snapshot()["counters"]["cache_hits"]
        engine.query("table3")
        engine.query("table6")
        after = engine.metrics.snapshot()["counters"]["cache_hits"]
        assert after - before == 2  # both served warm at the new generation
        # Warm results are exact: same bits a cold store computes.
        assert engine.query("table3") == layer_volumes(fresh_store(live))


def test_refresh_skips_already_current_entries(live, stream_logs):
    ingestor = StreamIngestor(live, summit().mount_table())
    ingestor.apply(stream_logs[:6])
    with QueryEngine(live, max_workers=2) as engine:
        engine.query("table3")
        ingestor.apply(stream_logs[6:])
        assert engine.refresh() == 1
        assert engine.refresh() == 0  # second call: entry already current


def test_non_foldable_queries_invalidate_and_recompute(live, stream_logs):
    ingestor = StreamIngestor(live, summit().mount_table())
    ingestor.apply(stream_logs[:6])
    with QueryEngine(live, max_workers=2) as engine:
        stale = engine.query("table2")
        ingestor.apply(stream_logs[6:])
        engine.refresh()
        counters = engine.metrics.snapshot()["counters"]
        fresh = engine.query("table2")
        after = engine.metrics.snapshot()["counters"]
        assert after["cache_misses"] - counters["cache_misses"] == 1
        assert after["executions"] - counters["executions"] == 1
        assert fresh == dataset_summary(fresh_store(live))
        assert fresh != stale  # the append changed the dataset summary


def test_describe_marks_foldable_queries(live):
    with QueryEngine(live, max_workers=1) as engine:
        queries = engine.describe()["queries"]
        assert {n for n, q in queries.items() if q["foldable"]} == set(FOLDABLE)


@pytest.mark.stress
def test_warm_hit_rate_stays_positive_across_appends(live, stream_logs):
    """Across N appends, every foldable query keeps hitting the cache.

    The acceptance shape: a follower keeps serving warm results while
    the store grows, so the hit counter must advance by the full
    foldable set after *each* append + refresh round.
    """
    ingestor = StreamIngestor(live, summit().mount_table())
    ingestor.apply(stream_logs[:1])
    with QueryEngine(live, max_workers=2) as engine:
        for name in FOLDABLE:
            engine.query(name)  # warm every foldable entry once, cold
        rounds = 0
        for i in range(1, len(stream_logs)):
            ingestor.apply(stream_logs[i:i + 1])
            assert engine.refresh() == len(FOLDABLE)
            before = engine.metrics.snapshot()["counters"]["cache_hits"]
            for name in FOLDABLE:
                engine.query(name)
            after = engine.metrics.snapshot()["counters"]["cache_hits"]
            assert after - before == len(FOLDABLE), f"round {i}: cold serve"
            rounds += 1
        assert rounds == len(stream_logs) - 1
        # And the warm results are still the exact cold-recompute bits.
        cold = fresh_store(live)
        assert engine.query("table3") == layer_volumes(cold)
        info = engine.cache.info()
        assert info["hits"] >= rounds * len(FOLDABLE)
