"""Federated QuerySpecs: the catalog's query surface.

:func:`federated_registry` wraps every *mergeable* spec of the base
registry in a federation-aware twin — same name, same headers, plus the
routing parameters (``member``, ``facility``, ``platform``, ``period``)
— and adds one ``compare_<name>`` spec per mergeable query (params
``a``/``b``: the two member labels) and a ``catalog_members`` listing.
The specs dispatch into a shared :class:`~repro.federation.executor.
FederationExecutor` and ignore the engine-provided store: the executor
owns member stores, contexts, and caches.

Because the federated registry is made of ordinary
:class:`~repro.serve.registry.QuerySpec` entries, the whole surface is
served identically by ``repro query --catalog`` (in process) and
``repro serve --catalog`` (over NDJSON) — the ISSUE's "first-class
registry entries" requirement, by construction.

All federated specs are ``cacheable=False`` **at the engine level**:
the engine's cache keys on its own store's generation, which says
nothing about member stores. Correct generation-keyed caching lives in
the executor (per-member tokens); marking the specs uncacheable routes
every request there.
"""

from __future__ import annotations

from repro.federation.executor import ROUTING_PARAMS, FederationExecutor
from repro.serve.registry import QuerySpec


def _federated_runner(executor: FederationExecutor, name: str):
    def run(store, params):
        return executor.query(name, params)

    return run


def _compare_runner(executor: FederationExecutor, name: str):
    def run(store, params):
        params = dict(params)
        a = params.pop("a", None)
        b = params.pop("b", None)
        if not a or not b:
            from repro.errors import CatalogError

            raise CatalogError(
                f"compare_{name} needs params a=<member> and b=<member>; "
                f"members: {', '.join(executor.catalog.labels) or '(empty)'}"
            )
        return executor.compare(name, str(a), str(b), params)

    return run


def _members_runner(executor: FederationExecutor):
    def run(store, params):
        return executor.members_table()

    return run


def federated_query_names() -> list[str]:
    """Every federated query name, without needing a catalog.

    The CLI's ``--exhibit`` choices are built at parser-construction
    time, before any catalog exists; this enumerates the same names
    :func:`federated_registry` would register.
    """
    from repro.serve.registry import default_registry

    names = ["catalog_members"]
    for name, spec in default_registry().items():
        if spec.mergeable:
            names.append(name)
            names.append(f"compare_{name}")
    return sorted(names)


def federated_registry(
    executor: FederationExecutor,
) -> dict[str, QuerySpec]:
    """Name -> federated spec for every mergeable base query."""
    specs: list[QuerySpec] = [
        QuerySpec(
            "catalog_members",
            "Catalog - member stores",
            "table",
            "catalog",
            _members_runner(executor),
            cacheable=False,
        )
    ]
    for name, base in executor.registry.items():
        if not base.mergeable:
            continue
        specs.append(
            QuerySpec(
                name,
                f"{base.title} (federated)",
                base.kind,
                base.header_key,
                _federated_runner(executor, name),
                param_names=(*base.param_names, *ROUTING_PARAMS),
                cacheable=False,
                mergeable=True,
            )
        )
        specs.append(
            QuerySpec(
                f"compare_{name}",
                f"{base.title} (cross-store compare)",
                "table",
                "compare",
                _compare_runner(executor, name),
                param_names=(*base.param_names, "a", "b"),
                cacheable=False,
            )
        )
    return {spec.name: spec for spec in specs}
