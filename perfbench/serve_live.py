"""``serve_live``: writes beside reads on one served store.

Inputs (built untimed, in a child interpreter): a summit store of
164k rows and an NDJSON tail of materialized logs, one for each append
of the run, so no log is applied twice. Set-up loads the store with
``mmap``, builds a ``QueryEngine(max_workers=2)`` and serves one warm
pass of the query mix; it is repeated ``SETUPS`` times and the last
engine serves the run.

The timed loop is a closed loop of ``CLIENTS`` clients: each sends its
next query when its previous answer is back, drawn uniformly from
``MIX`` by its own seeded generator, and pushes every answer through
``engine.serialize``. One thread drives both clients through
``QueryEngine.submit`` and waits on their futures (``QueryEngine.query``
is submit + result): cache hits answer at submit, misses run on the
engine's two workers, and two clients asking for the same missing result
coalesce. Two client threads would spend their time handing the
interpreter lock to each other, and on a shared 2-core box that hand-off
moved throughput and p99 by half whenever a neighbour took a core; one
driving thread keeps both steady. A shed request or a missed deadline
counts as a failed operation.

``APPENDS_PER_S`` times a second of the loop's clock, starting half an
interval in (so a one-second run still appends), between two requests,
the loop parses the next log of the tail, applies it with
``StreamIngestor.apply`` and calls ``engine.refresh()``. Refresh
re-warms the foldable queries of the mix; the others miss once after
each append and are recomputed. The serve cache, coalescer, stream
ingest and the append folds do most of the work; generation does none.

Where the traffic comes from:

* ``MIX`` is the steady-state mix of ``benchmarks/bench_serve.py``, one
  representative per exhibit family, with equal weights. What-if
  queries are left out: one point costs about as much as this whole
  loop's analysis and would hide the serve layer.
* Appends are single logs, as on the delta path of
  ``benchmarks/bench_stream.py``.
* ``APPENDS_PER_S`` is an assumption, not a measurement: no production
  log-arrival or read-to-append rate is known for this service. Logs
  arrive as jobs end, whatever the query load, so appends follow the
  clock, not the request count: a faster program serves more requests
  between two appends (a higher hit rate) but the same store. The rate
  is set so that a run's appends grow the store by about 4%; the run
  reports the appended-row share and the cache hit rate it gives.
"""

from __future__ import annotations

import gc
import time
from array import array
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from perfbench.common import FOLDABLE, median, peak_rss_mb, percentile

MIX = ("table2", "table3", "table5", "fig3", "fig6", "fig11", "users")
CLIENTS = 2
APPENDS_PER_S = 1
SETUPS = 15
TIMEOUT_S = 60.0
WINDOW_S = 1.0


def run(bench) -> dict:
    from repro.api import load_store, run_query
    from repro.errors import ServiceOverloadError
    from repro.platforms import summit
    from repro.serve.engine import QueryEngine
    from repro.serve.registry import serialize_result
    from repro.store.recordstore import RecordStore
    from repro.stream import StreamIngestor, parse_line

    tracer, outcome = bench.tracer, bench.outcome
    inputs = bench.prepare("serve_live")
    path = str(bench.tmp / "serve.store")
    with open(bench.tmp / "tail.ndjson", "rb") as fh:
        tail = fh.read().splitlines()

    setup_s = []
    store = engine = None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
            # A store and its analysis context reference each other, so a
            # dropped store is only freed by a cyclic collection.
            store = engine = None
            gc.collect()
        t0 = time.perf_counter()
        store = load_store(path, mmap=True)
        engine = QueryEngine(store, max_workers=2, max_queue=8)
        for name in MIX:
            engine.serialize(name, engine.query(name, timeout=TIMEOUT_S))
        setup_s.append(time.perf_counter() - t0)

    base_rows = len(store.files)
    ingestor = StreamIngestor(store, summit().mount_table())
    rngs = [np.random.default_rng([bench.seed, i]) for i in range(CLIENTS)]
    draws: list[list[int]] = [[] for _ in range(CLIENTS)]
    pending: list = [None] * CLIENTS  # (name, future, start s, cached, traced)
    # One entry per answered request, 18 bytes each in flat arrays (a
    # tuple per request would add ~100 MB to peak RSS at 15k requests/s).
    ends, latencies = array("d"), array("d")
    traced_flags, cached_flags = bytearray(), bytearray()
    fresh: list[tuple[bool, float]] = []
    appended_rows = appends = 0

    def append_next() -> None:
        nonlocal appended_rows, appends
        with tracer.span("bench.append"):
            with tracer.span("stream.parse"):
                logs = [parse_line(tail[appends])]
            with tracer.span("stream.apply") as apply:
                appended_rows += ingestor.apply(logs)
            with tracer.span("serve.refresh") as refresh:
                engine.refresh()
        outcome.op()
        fresh.append((tracer.enabled, apply.seconds + refresh.seconds))
        # Trace mode alternates traced and untraced append intervals.
        tracer.enabled = bench.trace and appends % 2 == 0
        appends += 1

    start = time.perf_counter()
    deadline = start + bench.loop_seconds
    while time.perf_counter() < deadline:
        for i in range(CLIENTS):
            if pending[i] is not None:
                continue
            if appends < len(tail) and time.perf_counter() - start >= (appends + 0.5) / APPENDS_PER_S:
                append_next()
            if not draws[i]:
                draws[i] = rngs[i].integers(len(MIX), size=4096).tolist()
            name = MIX[draws[i].pop()]
            t0 = time.perf_counter()
            with tracer.span("serve.query", query=name):
                future = engine.submit(name)
            # A future that is done at submit was answered from the cache.
            pending[i] = (name, future, t0, future.done(), tracer.enabled)
        futures = [p[1] for p in pending if p is not None]
        if not any(f.done() for f in futures):
            with tracer.span("serve.wait"):
                wait(futures, timeout=TIMEOUT_S, return_when=FIRST_COMPLETED)
        for i, p in enumerate(pending):
            if p is None:
                continue
            name, future, t0, cached, traced = p
            if not future.done() and time.perf_counter() - t0 < TIMEOUT_S:
                continue
            pending[i] = None
            try:
                result = future.result(timeout=0)
            except (ServiceOverloadError, FutureTimeoutError) as exc:
                outcome.op(False, f"{name}: {type(exc).__name__}")
                continue
            with tracer.span("serve.serialize", query=name):
                engine.serialize(name, result)
            now = time.perf_counter()
            outcome.op()
            ends.append(now)
            latencies.append(now - t0)
            traced_flags.append(traced)
            cached_flags.append(cached)
    wall = time.perf_counter() - start
    tracer.enabled = False
    for p in pending:
        if p is not None:
            p[1].result(timeout=TIMEOUT_S)
    peak_mb = peak_rss_mb()

    # Output checks, after the last append: the live (folded) store and the
    # served wire forms both equal a cold recompute on a fresh copy.
    cold = RecordStore(
        store.platform, np.array(store.files), np.array(store.jobs),
        domains=store.domains, extensions=store.extensions, scale=store.scale,
    )
    for name in MIX:
        spec = engine.spec(name)
        expected = serialize_result(spec, run_query(cold, name))
        if name in FOLDABLE:
            outcome.check(serialize_result(spec, run_query(store, name)) == expected,
                          f"live {name} differs from a cold recompute")
        outcome.check(engine.serialize(name, engine.query(name, timeout=TIMEOUT_S)) == expected,
                      f"served {name} differs from serialize_result(run_query)")
    stats = engine.stats()
    engine.close()

    lat = np.frombuffer(latencies, dtype=np.float64)
    traced_mask = np.frombuffer(traced_flags, dtype=np.bool_)
    plain = lat[~traced_mask]
    fresh_plain = [f for traced, f in fresh if not traced]
    # Rate and p99 per whole second of the loop, reported as medians over
    # the seconds: a burst of machine noise moves a few seconds, not the run.
    end_s = np.frombuffer(ends, dtype=np.float64)
    edges = start + WINDOW_S * np.arange(1, int(wall // WINDOW_S) + 1)
    windows = [
        lat[lo:hi]
        for lo, hi in zip(np.searchsorted(end_s, edges - WINDOW_S), np.searchsorted(end_s, edges))
    ]
    rates = [len(w) / WINDOW_S for w in windows]
    p99s = [1e3 * percentile(w, 99) for w in windows]
    out = {
        "e2e": {
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_mb,
            "throughput_per_s": median(rates),
            "latency_ms": 1e3 * percentile(plain, 50),
            "tail_latency_ms": median(p99s),
            "update_ms": 1e3 * median(fresh_plain),
        },
        "samples": {
            "setup_s": setup_s,
            "throughput_per_s": rates,
            "latency_ms": [1e3 * percentile(w, 50) for w in windows],
            "tail_latency_ms": p99s,
            "update_ms": [1e3 * f for f in fresh_plain],
        },
        "named": {
            "serve_qps": median(rates),
            "query_p50_ms": 1e3 * percentile(plain, 50),
            "query_p99_ms": median(p99s),
            "fresh_p50_ms": 1e3 * median(fresh_plain),
            "requests": len(lat),
            "fewest_beyond_p99_per_second": min(len(w) for w in windows) // 100,
            "appends": len(fresh),
            "appended_row_share": appended_rows / base_rows,
            "cache_hit_rate": stats["rates"]["cache_hit"],
        },
        "rows": dict(inputs["rows"], appended=appended_rows),
    }
    if bench.trace:
        cached_mask = np.frombuffer(cached_flags, dtype=np.bool_)
        out["overhead_pct"] = 100 * (percentile(lat[traced_mask], 50) / percentile(plain, 50) - 1)
        cached_lat = lat[traced_mask & cached_mask]
        out["layers"] = _layers(tracer, stats, cached_lat, appended_rows)
    return out


def _layers(tracer, stats: dict, cached_latencies: list, rows: int) -> dict:
    counters = stats["counters"]
    query = stats["latency_ms"].get("query", {})
    return {
        "serve.hit_rate": stats["rates"]["cache_hit"],
        "serve.coalesce_rate": stats["rates"]["coalesce"],
        "serve.executions": counters.get("executions", 0),
        "serve.rejected": counters.get("rejected", 0),
        "serve.exec_p50_ms": query.get("p50_ms", 0.0),
        "serve.exec_p99_ms": query.get("p99_ms", 0.0),
        # Client latency minus execution latency, taken over the requests
        # that executed nothing themselves (answered from the cache).
        "serve.wait_p99_ms": 1e3 * percentile(cached_latencies, 99),
        "serve.serialize_ms": 1e3 * median(tracer.durations("serve.serialize")),
        "stream.parse_ms": 1e3 * median(tracer.durations("stream.parse")),
        "stream.apply_ms": 1e3 * median(tracer.durations("stream.apply")),
        "stream.rows": rows,
        "serve.refresh_ms": 1e3 * median(tracer.durations("serve.refresh")),
        "serve.refreshed": counters.get("refreshed", 0),
    }
