"""Scatter-gather execution over a StoreCatalog's members.

The request path mirrors the single-store serve engine, lifted one
level: route (which members?) → per-member execute (each through its
own store's :class:`~repro.analysis.context.AnalysisContext`, behind a
per-member LRU cache) → combine (exact reducer, or merged-store
fallback).

**Per-member caching.** Every local member result is cached under
``(label, query, params, token)`` where the token is ``(manifest
generation, store generation)`` — the catalog's change-detection
counter plus the loaded store's own mutation counter. Appending a month
to one member bumps only that member's token; every other member's
entries stay addressable, so a fleet-wide query after a single-member
append recomputes exactly one member. Remote members are not cached
here at all: the remote engine already holds a generation-keyed cache
on its side of the socket, and caching its serialized answers locally
would reintroduce the staleness the token discipline exists to prevent.

**Combining.** Queries with an exact reducer (:data:`~repro.federation.
reduce.REDUCERS` — the associative-sum family) are reduced member-wise,
bit-identical to the merged table. Everything else mergeable falls back
to a real merged store — ``merge_stores(remap_log_ids=True,
remap_job_ids=True)``, members as independent populations in catalog
order — built once and cached against the tuple of member tokens.
Remote members participate in single-member routing and compares (both
operate on wire-form results); a scatter that would need their raw
tables raises a typed :class:`~repro.errors.CatalogError` instead of
silently downloading a facility-month over NDJSON.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from threading import RLock
from typing import Mapping

from repro.errors import CatalogError, CatalogMemberError
from repro.federation.catalog import CatalogMember, StoreCatalog
from repro.federation.compare import compare_serialized
from repro.federation.reduce import REDUCERS, reduce_results
from repro.obs.tracer import trace_event, trace_span
from repro.serve.cache import ResultCache
from repro.serve.metrics import Metrics
from repro.serve.registry import (
    QuerySpec,
    default_registry,
    serialize_result,
    validate_params,
)
from repro.store.merge import merge_stores
from repro.store.recordstore import RecordStore

#: Parameters the executor consumes for routing; the remainder of a
#: request's params go to the underlying query.
ROUTING_PARAMS = ("member", "facility", "platform", "period")


class FederationExecutor:
    """Runs registry queries across the members of one catalog."""

    def __init__(
        self,
        catalog: StoreCatalog,
        *,
        max_workers: int = 4,
        cache_entries: int = 256,
        registry: Mapping[str, QuerySpec] | None = None,
    ):
        self.catalog = catalog
        self.registry = dict(registry) if registry is not None else default_registry()
        self.metrics = Metrics()
        for name in ("member_runs", "scatter", "reduced", "merged_fallback",
                     "compare", "remote_runs"):
            self.metrics.counter(name)
        #: Per-member results plus merged-fallback results, LRU.
        self.cache = ResultCache(cache_entries)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-fed"
        )
        self._lock = RLock()
        #: label -> (manifest generation it was loaded at, store).
        self._stores: dict[str, tuple[int, RecordStore]] = {}
        #: token tuple -> merged store (kept across queries at one
        #: fleet state; dropped wholesale when any member moves).
        self._merged: tuple[tuple, RecordStore] | None = None

    # -- member plumbing -----------------------------------------------------
    def member_store(self, label: str) -> RecordStore:
        """The loaded store of a local member (reloaded when the
        manifest generation moved past the loaded copy)."""
        member = self.catalog.member(label)
        with self._lock:
            held = self._stores.get(label)
            if held is not None and held[0] == member.generation:
                return held[1]
            store = self.catalog.load_member(label)
            self._stores[label] = (member.generation, store)
            return store

    def _token(self, member: CatalogMember) -> tuple:
        """Cache token for one member's current state."""
        store = self.member_store(member.label)
        return (member.generation, store.generation)

    def _base_spec(self, name: str) -> QuerySpec:
        spec = self.registry.get(name)
        if spec is None:
            raise CatalogError(
                f"unknown query {name!r}; federation serves the mergeable "
                "registry queries"
            )
        return spec

    def _split_params(
        self, spec: QuerySpec, params: Mapping | None
    ) -> tuple[dict, dict]:
        """(routing params, validated query params) of one request."""
        params = dict(params or {})
        routing = {
            k: params.pop(k) for k in ROUTING_PARAMS if params.get(k) is not None
        }
        for k in ROUTING_PARAMS:
            params.pop(k, None)  # explicit nulls route like absences
        return routing, validate_params(spec, params)

    def select(self, routing: Mapping) -> list[CatalogMember]:
        """Members a request routes to (typed error when none match)."""
        labels = None
        if routing.get("member"):
            labels = [
                part.strip()
                for part in str(routing["member"]).split(",")
                if part.strip()
            ]
        picked = self.catalog.select(
            labels,
            facility=routing.get("facility"),
            platform=routing.get("platform"),
            period=routing.get("period"),
        )
        if not picked:
            axes = ", ".join(f"{k}={v!r}" for k, v in routing.items()) or "all"
            raise CatalogError(
                f"no catalog members match ({axes}); members: "
                f"{', '.join(self.catalog.labels) or '(empty)'}"
            )
        return picked

    # -- per-member execution ------------------------------------------------
    def run_member(self, member: CatalogMember, name: str, params: dict):
        """One member's result: in-process object (local member, cached
        under the member token) or wire dict (remote member)."""
        spec = self._base_spec(name)
        if member.kind == "serve":
            from repro.serve.client import ServeClient

            self.metrics.counter("remote_runs").inc()
            with trace_span("federation.remote", "federation") as sp:
                if sp is not None:
                    sp.add(member=member.label, query=name)
                try:
                    host, port = member.endpoint
                    with ServeClient(host, port) as client:
                        return client.query(name, params)
                except OSError as exc:
                    raise CatalogMemberError(
                        member.label, f"endpoint {member.location}: {exc}"
                    ) from None
        token = self._token(member)
        key = (member.label, name, tuple(sorted(params.items())), token)
        hit, value = self.cache.get(key)
        if hit:
            trace_event(
                "federation.cache_hit", "federation",
                member=member.label, query=name,
            )
            return value
        self.metrics.counter("member_runs").inc()
        with trace_span("federation.member", "federation") as sp:
            if sp is not None:
                sp.add(member=member.label, query=name)
            store = self.member_store(member.label)
            result = spec.run(store, params)
        self.cache.put(key, result)
        return result

    def _scatter(
        self, members: list[CatalogMember], name: str, params: dict
    ) -> list:
        """Per-member results, in member order, computed concurrently."""
        self.metrics.counter("scatter").inc()
        futures = [
            self._pool.submit(self.run_member, m, name, params)
            for m in members
        ]
        return [f.result() for f in futures]

    # -- merged-store fallback -----------------------------------------------
    def merged_store(self, members: list[CatalogMember]) -> RecordStore:
        """The members' merged store (independent populations, catalog
        order), cached against the member-token tuple."""
        remote = [m.label for m in members if m.kind != "store"]
        if remote:
            raise CatalogError(
                f"query needs the raw tables of remote member(s) "
                f"{', '.join(remote)}; route it per member "
                "(params {'member': <label>}) or use a compare query"
            )
        tokens = tuple((m.label, self._token(m)) for m in members)
        with self._lock:
            if self._merged is not None and self._merged[0] == tokens:
                return self._merged[1]
        with trace_span("federation.merge", "federation") as sp:
            if sp is not None:
                sp.add(members=len(members))
            merged = merge_stores(
                [self.member_store(m.label) for m in members],
                remap_log_ids=True,
                remap_job_ids=True,
            )
        with self._lock:
            self._merged = (tokens, merged)
        return merged

    # -- the federated request path ------------------------------------------
    def query(self, name: str, params: Mapping | None = None):
        """Route, execute, combine — the federated form of one query.

        Routing params (``member`` — one label or a comma-separated
        subset — ``facility``, ``platform``, ``period``) pick the
        members; the rest of ``params`` goes to the query itself.
        Returns an in-process result object, or the wire dict when a
        single remote member answered.
        """
        spec = self._base_spec(name)
        routing, params = self._split_params(spec, params)
        members = self.select(routing)
        with trace_span("federation.query", "federation") as sp:
            if sp is not None:
                sp.add(query=name, members=len(members))
            if len(members) == 1:
                return self.run_member(members[0], name, params)
            if name in REDUCERS:
                remote = [m.label for m in members if m.kind != "store"]
                if remote:
                    raise CatalogError(
                        f"cannot scatter-reduce {name!r} over remote "
                        f"member(s) {', '.join(remote)}; route per member "
                        "or compare two members instead"
                    )
                results = self._scatter(members, name, params)
                self.metrics.counter("reduced").inc()
                return reduce_results(name, results)
            self.metrics.counter("merged_fallback").inc()
            store = self.merged_store(members)
            key = (
                "__merged__", name, tuple(sorted(params.items())),
                tuple((m.label, self._token(m)) for m in members),
            )
            hit, value = self.cache.get(key)
            if hit:
                return value
            result = spec.run(store, params)
            self.cache.put(key, result)
            return result

    def compare(self, name: str, a: str, b: str, params: Mapping | None = None):
        """Cross-store comparison of one query between two members.

        Both sides are serialized to wire form first (so local and
        remote members compare identically), then aligned row-by-row on
        their non-numeric key cells; numeric cells become (a, b, delta,
        delta%) rows. Returns a
        :class:`~repro.federation.compare.CompareReport`.
        """
        spec = self._base_spec(name)
        _, params = self._split_params(spec, params)
        if a == b:
            raise CatalogError(
                f"compare needs two distinct members, got {a!r} twice"
            )
        self.metrics.counter("compare").inc()
        with trace_span("federation.compare", "federation") as sp:
            if sp is not None:
                sp.add(query=name, a=a, b=b)
            sides = self._scatter(
                [self.catalog.member(a), self.catalog.member(b)], name, params
            )
            wire = [
                side if isinstance(side, dict) else serialize_result(spec, side)
                for side in sides
            ]
            return compare_serialized(name, a, b, wire[0], wire[1])

    def anchor_store(self) -> RecordStore:
        """A store for a serving engine to anchor on.

        The engine's constructor and ``stats`` surface want *a* store;
        federated specs never read it. Use the first local member's, or
        an empty placeholder when every member is remote.
        """
        for member in self.catalog:
            if member.kind == "store":
                return self.member_store(member.label)
        from repro.store.schema import empty_files, empty_jobs

        members = self.catalog.members
        platform = members[0].platform if members else ""
        return RecordStore(
            platform or "federation", empty_files(0), empty_jobs(0)
        )

    # -- introspection -------------------------------------------------------
    def members_table(self):
        """Rows for the ``catalog_members`` query (manifest order)."""
        from repro.federation.compare import TableResult

        rows = [
            [
                m.label, m.kind, m.facility or "-", m.platform or "-",
                m.period or "-", str(m.generation), str(m.rows), str(m.jobs),
            ]
            for m in self.catalog
        ]
        return TableResult(rows)

    def stats(self) -> dict:
        snap = self.metrics.snapshot()
        return {
            "catalog": {
                "path": self.catalog.path,
                "members": len(self.catalog),
                "loaded": sorted(self._stores),
            },
            "cache": self.cache.info(),
            "counters": snap["counters"],
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FederationExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FederationExecutor({self.catalog.path!r}, "
            f"members={len(self.catalog)})"
        )
