"""QueryEngine: bounded, coalescing, cached analysis execution.

The request path, in order:

1. **registry** — resolve the query name to a :class:`QuerySpec`
   (:exc:`~repro.errors.UnknownQueryError` otherwise) and validate its
   parameters;
2. **cache** — (query, params, store generation) hit returns a finished
   future immediately;
3. **coalesce** — an identical request already in flight returns that
   request's future; the analysis runs exactly once;
4. **admission** — a leader must claim one of
   ``max_workers + max_queue`` slots *without blocking*; when none is
   free the request (and everyone coalesced onto it) fails fast with
   :exc:`~repro.errors.ServiceOverloadError` instead of growing an
   unbounded queue;
5. **execute** — a pool thread runs the analysis through the store's
   shared (thread-safe) :class:`~repro.analysis.context.AnalysisContext`,
   records latency, populates the cache, resolves the future.

Deadlines bound the *caller's wait* (:meth:`QueryEngine.query`'s
``timeout`` raises :exc:`~repro.errors.QueryTimeoutError`); worker
threads cannot be interrupted, so the stray computation still lands in
the cache for the retry.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from threading import BoundedSemaphore
from typing import Mapping

from repro.errors import QueryTimeoutError, ServiceOverloadError, UnknownQueryError
from repro.obs.clock import perf_ns
from repro.obs.integrate import analysis_span
from repro.obs.tracer import trace_event, trace_span
from repro.serve.cache import ResultCache
from repro.serve.coalesce import InFlightTable
from repro.serve.metrics import Metrics
from repro.serve.registry import (
    QuerySpec,
    default_registry,
    serialize_result,
    validate_params,
)
from repro.store.recordstore import RecordStore

#: Queries answered by the engine itself (no analysis, no pool slot).
_META_QUERIES = ("stats", "queries")


class QueryEngine:
    """Serves named analysis queries over one loaded RecordStore.

    ``extra_queries`` lets tests (and future subsystems) register
    additional :class:`QuerySpec` entries without touching the default
    registry.
    """

    def __init__(
        self,
        store: RecordStore,
        *,
        max_workers: int = 4,
        max_queue: int = 32,
        cache_entries: int = 256,
        default_timeout: float | None = None,
        extra_queries: Mapping[str, QuerySpec] | None = None,
        registry: Mapping[str, QuerySpec] | None = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.store = store
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        # ``registry`` replaces the default registry wholesale — the
        # federation front-end serves *only* federated specs, so plain
        # single-store queries cannot silently answer from whichever
        # member happens to back the engine.
        self.registry = dict(registry) if registry is not None else default_registry()
        if extra_queries:
            self.registry.update(extra_queries)
        self.metrics = Metrics()
        # Pre-register the standard counters so the `stats` wire surface
        # always carries the same keys, even on an idle engine.
        for name in ("requests", "cache_hits", "cache_misses", "coalesced",
                     "rejected", "timeouts", "executions", "errors",
                     "refreshed"):
            self.metrics.counter(name)
        self.cache = ResultCache(cache_entries)
        self._inflight = InFlightTable()
        self._slots = BoundedSemaphore(max_workers + max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )

    # -- registry ------------------------------------------------------------
    def query_names(self) -> list[str]:
        """Every servable query name (registry plus engine meta queries)."""
        return sorted((*self.registry, *_META_QUERIES))

    def spec(self, name: str) -> QuerySpec | None:
        return self.registry.get(name)

    # -- request path --------------------------------------------------------
    def submit(self, name: str, params: Mapping | None = None) -> Future:
        """Admit one request; the future resolves to the analysis result.

        Raises synchronously for malformed requests (unknown query /
        bad params); overload is delivered *through the future* so
        coalesced followers of a shed leader all observe it.
        """
        metrics = self.metrics
        metrics.counter("requests").inc()
        if name in _META_QUERIES:
            future: Future = Future()
            future.set_result(
                self.stats() if name == "stats" else self.describe()
            )
            return future
        spec = self.registry.get(name)
        if spec is None:
            metrics.counter("unknown").inc()
            raise UnknownQueryError(
                f"unknown query {name!r}; available: "
                f"{', '.join(self.query_names())}"
            )
        params = validate_params(spec, params)
        metrics.counter(f"requests.{name}").inc()

        if not spec.cacheable:
            return self._admit(spec, params, key=None)

        key = (name, tuple(sorted(params.items())), self.store.generation)
        hit, value = self.cache.get(key)
        if hit:
            metrics.counter("cache_hits").inc()
            trace_event("serve.cache_hit", "serve", query=name)
            future = Future()
            future.set_result(value)
            return future
        metrics.counter("cache_misses").inc()

        leader, future = self._inflight.join(key)
        if not leader:
            metrics.counter("coalesced").inc()
            trace_event("serve.coalesced", "serve", query=name)
            return future
        return self._admit(spec, params, key=key, future=future)

    def _admit(
        self,
        spec: QuerySpec,
        params: dict,
        *,
        key,
        future: Future | None = None,
    ) -> Future:
        """Claim a pool slot for a leader, or shed the request."""
        if future is None:
            future = Future()
        if not self._slots.acquire(blocking=False):
            if key is not None:
                self._inflight.finish(key)
            self.metrics.counter("rejected").inc()
            trace_event("serve.shed", "serve", query=spec.name)
            future.set_exception(
                ServiceOverloadError(
                    f"query {spec.name!r} shed: {self.max_workers} workers "
                    f"and all {self.max_queue} queue slots are busy"
                )
            )
            return future
        self._pool.submit(self._run, spec, params, key, future)
        return future

    def _run(self, spec: QuerySpec, params: dict, key, future: Future) -> None:
        """Worker-thread body: execute, record, cache, resolve."""
        metrics = self.metrics
        started = perf_ns()
        try:
            with trace_span("serve.execute", "serve") as sp:
                if sp is not None:
                    sp.add(query=spec.name)
                # The same per-entry-point span (with cache hit/miss
                # attributes) a study trace gets, so server-driven and
                # CLI-driven runs of one analysis look alike in a trace.
                with analysis_span(spec.name, self.store.analysis()):
                    result = spec.run(self.store, params)
        except BaseException as exc:
            metrics.counter("errors").inc()
            if key is not None:
                self._inflight.finish(key)
            future.set_exception(exc)
        else:
            # One clock for both observability sinks: the histogram
            # sample is the same perf_ns delta a span would carry.
            elapsed_ns = perf_ns() - started
            metrics.counter("executions").inc()
            metrics.timer("query").record_ns(elapsed_ns)
            metrics.timer(f"query.{spec.name}").record_ns(elapsed_ns)
            if key is not None:
                # Cache before un-tracking: a request arriving in the
                # gap must see one of the two (see InFlightTable.finish).
                self.cache.put(key, result)
                self._inflight.finish(key)
            future.set_result(result)
        finally:
            self._slots.release()

    def refresh(self) -> int:
        """Re-warm cached foldable results after an append-only mutation.

        The generation is part of every cache key, so an append orphans
        all cached entries. For **foldable** queries the delta path
        (:meth:`RecordStore.append` on a warm context) already folded
        the new rows into the memoized analysis result — rerunning the
        query is a memo hit, not a recompute. This method reruns each
        foldable query that was cached at an earlier generation and
        caches the result under the current one, so followers of a
        tailed stream keep hitting the cache across appends. Returns
        the number of entries re-warmed; never raises (a failed rerun
        is counted under ``errors`` and skipped).

        Wired as the ``on_append`` callback of
        :func:`repro.stream.ingest.follow`.
        """
        generation = self.store.generation
        cached = self.cache.keys()
        current = {key for key in cached if key[2] == generation}
        warm: dict[str, tuple] = {}
        for key in cached:
            name, params_items, gen = key
            spec = self.registry.get(name)
            if spec is None or not spec.foldable or gen == generation:
                continue
            warm[name] = params_items  # latest generation wins (LRU order)
        refreshed = 0
        for name, params_items in warm.items():
            key = (name, params_items, generation)
            if key in current:
                continue
            spec = self.registry[name]
            try:
                with trace_span("serve.refresh", "serve") as sp:
                    if sp is not None:
                        sp.add(query=name, generation=generation)
                    result = spec.run(self.store, dict(params_items))
            except Exception:
                self.metrics.counter("errors").inc()
                continue
            self.cache.put(key, result)
            self.metrics.counter("refreshed").inc()
            refreshed += 1
        return refreshed

    def query(
        self,
        name: str,
        params: Mapping | None = None,
        *,
        timeout: float | None = -1.0,
    ) -> object:
        """Blocking request with a deadline (None waits forever)."""
        if timeout == -1.0:
            timeout = self.default_timeout
        future = self.submit(name, params)
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            self.metrics.counter("timeouts").inc()
            trace_event("serve.timeout", "serve", query=name)
            raise QueryTimeoutError(
                f"query {name!r} missed its {timeout:g}s deadline "
                "(the computation continues and will populate the cache)"
            ) from None

    def serialize(self, name: str, result) -> dict:
        """Wire form of a result (meta queries are already dicts)."""
        if name in _META_QUERIES:
            return {"kind": "meta", **result}
        return serialize_result(self.registry[name], result)

    # -- introspection -------------------------------------------------------
    def describe(self) -> dict:
        """The ``queries`` meta query: every name with title and policy."""
        entries = {
            name: {
                "title": spec.title,
                "kind": spec.kind,
                "params": list(spec.param_names),
                "cacheable": spec.cacheable,
                "foldable": spec.foldable,
                "mergeable": spec.mergeable,
            }
            for name, spec in self.registry.items()
        }
        for name in _META_QUERIES:
            entries[name] = {
                "title": f"service {name}", "kind": "meta", "params": [],
                "cacheable": False, "foldable": False, "mergeable": False,
            }
        return {"queries": entries}

    def stats(self) -> dict:
        """The ``stats`` meta query: counters, latency, hit rates."""
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        requests = counters.get("requests", 0)
        lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)

        def rate(n: int, d: int) -> float:
            return round(n / d, 4) if d else 0.0

        return {
            "store": {
                "platform": self.store.platform,
                "rows": len(self.store.files),
                "jobs": len(self.store.jobs),
                "generation": self.store.generation,
            },
            "pool": {
                "max_workers": self.max_workers,
                "max_queue": self.max_queue,
                "in_flight": len(self._inflight),
            },
            "cache": self.cache.info(),
            "counters": counters,
            "latency_ms": snap["latency"],
            "rates": {
                "cache_hit": rate(counters.get("cache_hits", 0), lookups),
                "coalesce": rate(counters.get("coalesced", 0), requests),
                "rejection": rate(counters.get("rejected", 0), requests),
            },
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryEngine({self.store.platform!r}, "
            f"workers={self.max_workers}, queue={self.max_queue}, "
            f"cache={self.cache.max_entries})"
        )
