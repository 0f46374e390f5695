"""The serving invariants: coalescing, caching, backpressure, metrics.

The acceptance bar for the serving subsystem:

- N identical concurrent queries execute the underlying analysis
  exactly once (coalescing);
- a warm cached query is >=10x faster than cold;
- served results are byte-identical to direct ``analysis/`` calls for
  every exhibit;
- load past the admission bound sheds with ``ServiceOverloadError``
  (never a hang or unbounded queue growth).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import performance_by_bin
from repro.analysis.context import AnalysisContext
from repro.analysis.report import render_results
from repro.errors import (
    QueryTimeoutError,
    ServeError,
    ServiceOverloadError,
    UnknownQueryError,
)
from repro.serve import (
    BackgroundServer,
    QueryEngine,
    ServeClient,
    default_registry,
    serialize_result,
)
from repro.serve.cache import ResultCache
from repro.serve.metrics import LatencyHistogram, Metrics
from repro.serve.registry import QuerySpec, exhibit_names, validate_params


def _spec(name, fn, *, params=(), cacheable=True):
    return QuerySpec(
        name=name, title=name, kind="meta", header_key=None, run=fn,
        param_names=tuple(params), cacheable=cacheable,
    )


class _Probe:
    """A registerable query with a controllable body and a call count."""

    def __init__(self, delay=0.0, event: threading.Event | None = None):
        self.calls = 0
        self.delay = delay
        self.event = event
        self._lock = threading.Lock()

    def __call__(self, store, ctx, params):
        with self._lock:
            self.calls += 1
        if self.event is not None:
            assert self.event.wait(timeout=30), "probe gate never opened"
        if self.delay:
            time.sleep(self.delay)
        return {"echo": dict(params), "calls": self.calls}


class TestQueryEngineBasics:
    @pytest.fixture(scope="class")
    def engine(self, summit_store_small):
        with QueryEngine(summit_store_small, max_workers=4) as engine:
            yield engine

    def test_unknown_query_is_typed(self, engine):
        with pytest.raises(UnknownQueryError, match="frobnicate"):
            engine.query("frobnicate")

    def test_unknown_param_is_typed(self, engine):
        with pytest.raises(ServeError, match="unknown parameter"):
            engine.query("table3", {"nope": 1})

    def test_non_scalar_param_is_typed(self, engine):
        with pytest.raises(ServeError, match="JSON scalar"):
            engine.query("advise_aggregation", {"top": [1, 2]})

    def test_list_matches_registry(self, engine):
        names = engine.query_names()
        for name in default_registry():
            assert name in names
        assert "stats" in names and "queries" in names

    def test_describe_covers_every_query(self, engine):
        described = engine.query("queries")["queries"]
        assert set(described) == set(engine.query_names())
        assert described["advise_aggregation"]["params"] == ["top"]

    def test_stats_shape(self, engine):
        engine.query("table2")
        stats = engine.query("stats")
        assert stats["store"]["platform"] == "summit"
        assert stats["pool"]["max_workers"] == 4
        assert stats["counters"]["requests"] >= 1
        assert 0.0 <= stats["rates"]["cache_hit"] <= 1.0

    def test_advise_params_reach_runner(self, engine):
        top = engine.query("advise_aggregation", {"top": 2})
        full = engine.query("advise_aggregation")
        assert len(top) == min(2, len(full))
        assert top == full[: len(top)]


class TestEquivalence:
    """Served results are byte-identical to direct analysis calls."""

    @pytest.mark.parametrize("name", sorted(default_registry()))
    def test_exhibit_identical_to_direct(self, summit_store_small, name):
        registry = default_registry()
        spec = registry[name]
        with QueryEngine(summit_store_small, max_workers=2) as engine:
            served = engine.query(name)
        # A pinned, empty context: the direct path recomputes from raw
        # rows rather than sharing the engine's memoized results.
        fresh = AnalysisContext(summit_store_small)
        direct = spec.run(summit_store_small, fresh, {})
        assert serialize_result(spec, served) == serialize_result(spec, direct)
        if spec.kind == "table":
            assert render_results(spec.title, spec.headers, served) == \
                render_results(spec.title, spec.headers, direct)

    def test_exhibit_names_are_the_cli_surface(self):
        assert "table2" in exhibit_names()
        assert "shapes" not in exhibit_names()  # serve-only, not tabular


class TestCoalescing:
    def test_identical_concurrent_queries_execute_once(self, summit_store_small):
        probe = _Probe(delay=0.25)
        with QueryEngine(
            summit_store_small, max_workers=8,
            extra_queries={"probe": _spec("probe", probe)},
        ) as engine:
            nclients = 8
            barrier = threading.Barrier(nclients)

            def client():
                barrier.wait()
                return engine.query("probe", timeout=30)

            with ThreadPoolExecutor(nclients) as pool:
                results = [f.result() for f in
                           [pool.submit(client) for _ in range(nclients)]]
            counters = engine.stats()["counters"]
        assert probe.calls == 1, "coalescer must collapse identical queries"
        assert all(r is results[0] for r in results), \
            "every coalesced caller gets the leader's result object"
        # Every non-leader either coalesced in flight or hit the cache.
        assert counters.get("coalesced", 0) + counters.get("cache_hits", 0) \
            == nclients - 1
        assert counters["executions"] == 1

    def test_distinct_params_do_not_coalesce(self, summit_store_small):
        probe = _Probe()
        with QueryEngine(
            summit_store_small, max_workers=4,
            extra_queries={"probe": _spec("probe", probe, params=("i",))},
        ) as engine:
            futures = [engine.submit("probe", {"i": i}) for i in range(3)]
            results = [f.result(timeout=30) for f in futures]
        assert probe.calls == 3
        assert [r["echo"]["i"] for r in results] == [0, 1, 2]


class TestCaching:
    def test_warm_is_10x_faster_than_cold(self, summit_store_small):
        # A deliberately slow (but deterministic) compute: cold pays the
        # 200 ms body, warm must come straight from the result cache.
        probe = _Probe(delay=0.2)
        with QueryEngine(
            summit_store_small, max_workers=2,
            extra_queries={"probe": _spec("probe", probe)},
        ) as engine:
            t0 = time.perf_counter()
            cold = engine.query("probe", timeout=30)
            cold_seconds = time.perf_counter() - t0
            t1 = time.perf_counter()
            warm = engine.query("probe", timeout=30)
            warm_seconds = time.perf_counter() - t1
        assert probe.calls == 1
        assert warm is cold
        assert cold_seconds >= 10 * warm_seconds, (cold_seconds, warm_seconds)

    def test_real_exhibit_hits_cache(self, summit_store_small):
        with QueryEngine(summit_store_small, max_workers=2) as engine:
            engine.query("table4")
            engine.query("table4")
            counters = engine.stats()["counters"]
        assert counters["cache_hits"] == 1
        assert counters["executions"] == 1

    def test_store_mutation_invalidates(self, summit_store_small):
        from repro.store.recordstore import RecordStore
        from repro.store.schema import FILE_DTYPE, JOB_DTYPE

        # A private copy: mutating the session-scoped store would poison
        # every other test's generation-keyed caches.
        store = RecordStore(
            summit_store_small.platform,
            summit_store_small.files.copy(),
            summit_store_small.jobs.copy(),
            domains=summit_store_small.domains,
            extensions=summit_store_small.extensions,
            scale=summit_store_small.scale,
        )
        probe = _Probe()
        with QueryEngine(
            store, max_workers=2,
            extra_queries={"probe": _spec("probe", probe)},
        ) as engine:
            engine.query("probe", timeout=30)
            engine.query("probe", timeout=30)
            assert probe.calls == 1
            store.extend(
                np.empty(0, dtype=FILE_DTYPE), np.empty(0, dtype=JOB_DTYPE)
            )
            engine.query("probe", timeout=30)
            assert probe.calls == 2, "generation bump must bust the cache"
            assert engine.stats()["store"]["generation"] == 1

    def test_lru_eviction(self, summit_store_small):
        probe = _Probe()
        with QueryEngine(
            summit_store_small, max_workers=1, cache_entries=2,
            extra_queries={"probe": _spec("probe", probe, params=("i",))},
        ) as engine:
            for i in (0, 1, 2):  # capacity 2: i=0 is evicted
                engine.query("probe", {"i": i}, timeout=30)
            engine.query("probe", {"i": 0}, timeout=30)
            info = engine.cache.info()
        assert probe.calls == 4
        assert info["evictions"] >= 2
        assert info["entries"] == 2


def _closed_loop(engine, queries, *, clients, requests):
    """Each client issues its next request once the previous returns."""
    issued = iter(range(requests))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                i = next(issued, None)
            if i is None:
                return
            engine.query(queries[i % len(queries)], timeout=120)

    with ThreadPoolExecutor(clients) as pool:
        for f in [pool.submit(client) for _ in range(clients)]:
            f.result()


class TestClosedLoad:
    """Closed-loop load on the reference summit store (seed 20220627,
    scale 1e-3)."""

    #: The steady-state query mix: one per exhibit family.
    MIX = ("table2", "table3", "table5", "fig3", "fig6", "fig11", "users")

    def test_steady_state_is_all_cache_hits(self, study):
        with QueryEngine(study.store("summit"), max_workers=4) as engine:
            for name in self.MIX:
                engine.query(name, timeout=120)
            _closed_loop(engine, self.MIX, clients=8, requests=1500)
            counters = engine.stats()["counters"]
        assert counters["cache_hits"] >= 1500

    def test_uncached_herd_coalesces(self, study):
        """With the result cache off, only the coalescer stands between
        a herd and one full recompute per request."""
        store = study.store("summit")
        herd = QuerySpec(
            name="fig11_cold", title="Figure 11 recomputed from raw rows",
            kind="table", header_key="fig11",
            run=lambda s, ctx, params: performance_by_bin(
                s, context=AnalysisContext(s)
            ),
        )
        with QueryEngine(
            store, max_workers=4, cache_entries=0,
            extra_queries={"fig11_cold": herd},
        ) as engine:
            _closed_loop(engine, ["fig11_cold"], clients=16, requests=96)
            counters = engine.stats()["counters"]
        assert counters["executions"] < 96 / 2
        assert counters["executions"] + counters.get("coalesced", 0) == 96


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, summit_store_small):
        gate = threading.Event()
        probe = _Probe(event=gate)
        with QueryEngine(
            summit_store_small, max_workers=1, max_queue=1,
            extra_queries={"probe": _spec("probe", probe, params=("i",))},
        ) as engine:
            # Fill the worker and the one queue slot with distinct keys.
            admitted = [engine.submit("probe", {"i": i}) for i in range(2)]
            shed = engine.submit("probe", {"i": 2})
            with pytest.raises(ServiceOverloadError, match="shed"):
                shed.result(timeout=5)
            assert engine.stats()["counters"]["rejected"] == 1
            # Shedding is not a death spiral: free the pool and the
            # admitted work (and new work) completes normally.
            gate.set()
            for f in admitted:
                f.result(timeout=30)
            assert engine.query("probe", {"i": 3}, timeout=30)["echo"] == {"i": 3}

    def test_coalesced_followers_of_shed_leader_fail_too(self, summit_store_small):
        gate = threading.Event()
        probe = _Probe(event=gate)
        with QueryEngine(
            summit_store_small, max_workers=1, max_queue=0,
            extra_queries={"probe": _spec("probe", probe, params=("i",))},
        ) as engine:
            blocker = engine.submit("probe", {"i": 0})
            shed_leader = engine.submit("probe", {"i": 1})
            shed_follower = engine.submit("probe", {"i": 1})
            for f in (shed_leader, shed_follower):
                with pytest.raises(ServiceOverloadError):
                    f.result(timeout=5)
            gate.set()
            blocker.result(timeout=30)
            # The shed key was un-tracked: a retry now succeeds.
            assert engine.query("probe", {"i": 1}, timeout=30)["echo"] == {"i": 1}

    def test_deadline_is_typed_and_compute_survives(self, summit_store_small):
        gate = threading.Event()
        probe = _Probe(event=gate)
        with QueryEngine(
            summit_store_small, max_workers=1,
            extra_queries={"probe": _spec("probe", probe)},
        ) as engine:
            with pytest.raises(QueryTimeoutError, match="deadline"):
                engine.query("probe", timeout=0.05)
            assert engine.stats()["counters"]["timeouts"] == 1
            gate.set()
            # The stray computation lands in the cache; the retry is warm.
            result = engine.query("probe", timeout=30)
            assert probe.calls == 1
            assert result["calls"] == 1


class TestMetricsPrimitives:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):  # 1..100 ms
            hist.record(ms / 1e3)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["p50_ms"] == pytest.approx(50.0)
        assert snap["p95_ms"] == pytest.approx(95.0)
        assert snap["p99_ms"] == pytest.approx(99.0)
        assert snap["max_ms"] == pytest.approx(100.0)

    def test_histogram_window_wraps(self):
        hist = LatencyHistogram(window=4)
        for s in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            hist.record(s)
        snap = hist.snapshot()
        assert snap["count"] == 6
        assert snap["max_ms"] == pytest.approx(6000.0)
        assert snap["p50_ms"] >= 3000.0  # only the newest 4 samples remain

    def test_counter_thread_safety(self):
        metrics = Metrics()
        counter = metrics.counter("hits")

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000

    def test_cache_disabled_at_zero(self):
        cache = ResultCache(0)
        cache.put("k", "v")
        hit, _ = cache.get("k")
        assert not hit
        assert cache.info()["entries"] == 0

    def test_validate_params_rejects_unknown(self):
        spec = _spec("q", lambda *a: None, params=("a",))
        assert validate_params(spec, {"a": 1}) == {"a": 1}
        with pytest.raises(ServeError):
            validate_params(spec, {"b": 1})


class TestContextThreadSafety:
    def test_concurrent_readers_share_one_compute(self, summit_store_small):
        """Hammer one fresh context from many threads; every derived
        array must come back as the same object (computed once)."""
        ctx = AnalysisContext(summit_store_small)
        barrier = threading.Barrier(8)

        def reader():
            barrier.wait()
            return (
                ctx.transfer_sizes(),
                ctx.opclass(),
                ctx.idx("unique", "shared"),
            )

        with ThreadPoolExecutor(8) as pool:
            outs = [f.result() for f in [pool.submit(reader) for _ in range(8)]]
        first = outs[0]
        for out in outs[1:]:
            for a, b in zip(first, out):
                assert a is b


class TestServerClient:
    @pytest.fixture(scope="class")
    def served(self, summit_store_small):
        engine = QueryEngine(summit_store_small, max_workers=4)
        with BackgroundServer(engine) as server:
            with ServeClient(port=server.port) as client:
                yield engine, client
        engine.close()

    def test_wire_result_matches_local_serialization(self, served, summit_store_small):
        engine, client = served
        spec = default_registry()["table3"]
        direct = spec.run(
            summit_store_small, AnalysisContext(summit_store_small), {}
        )
        assert client.query("table3") == serialize_result(spec, direct)

    def test_wire_errors_are_typed(self, served):
        _, client = served
        with pytest.raises(UnknownQueryError):
            client.query("frobnicate")
        with pytest.raises(ServeError):
            client.query("table3", {"bogus": True})

    def test_stats_and_listing_over_the_wire(self, served):
        _, client = served
        listing = client.list_queries()
        assert "table2" in listing and "stats" in listing
        stats = client.stats()
        assert stats["counters"]["requests"] >= 1
        assert stats["kind"] == "meta"

    def test_pipelined_requests_one_connection(self, served):
        _, client = served
        for name in ("table2", "table5", "fig6"):
            result = client.query(name)
            assert result["kind"] == "table" and result["rows"]

    def test_malformed_request_line(self, served):
        engine, client = served
        client._sock.sendall(b"this is not json\n")
        response = json.loads(client._reader.readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "ServeError"
        # The connection survives malformed lines.
        assert client.query("table2")["kind"] == "table"

    def test_analysis_bug_becomes_error_response(self, summit_store_small):
        """A non-Repro exception in a runner must still answer the client.

        Regression: only ReproError was caught, so e.g. a KeyError from
        an analysis left the request task dead and the client hanging
        until its socket timeout.
        """
        def _explode(store, ctx, params):
            raise KeyError("no panel for layer='insystem'")

        broken = _spec("broken", _explode)
        engine = QueryEngine(
            summit_store_small, max_workers=2,
            extra_queries={"broken": broken},
        )
        with BackgroundServer(engine) as server:
            with ServeClient(port=server.port) as client:
                response = client.request("broken", timeout=30)
                assert response["ok"] is False
                assert response["error"]["type"] == "InternalError"
                assert "KeyError" in response["error"]["message"]
                with pytest.raises(ServeError, match="KeyError"):
                    client.query("broken")
                # The connection and engine survive the failure.
                assert client.query("table2")["kind"] == "table"
        engine.close()


class TestCli:
    def test_analyze_list_covers_registry(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        for name in default_registry():
            assert name in out

    def test_analyze_without_store_errors(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 2
        assert "required" in capsys.readouterr().err

    def test_query_command_against_live_server(self, summit_store_small, capsys):
        from repro.cli import main

        engine = QueryEngine(summit_store_small, max_workers=2)
        with BackgroundServer(engine) as server:
            rc = main(["query", "table3", "--port", str(server.port)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "Table 3" in out and "pfs" in out
            rc = main([
                "query", "advise_aggregation", "--port", str(server.port),
                "--params", '{"top": 3}', "--json",
            ])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == "advice"
            assert len(payload["items"]) <= 3
        engine.close()
