"""The named-query registry: one table mapping query names to analyses.

``repro analyze``, ``repro query``, and :class:`repro.serve.engine.QueryEngine`
all dispatch through :func:`default_registry`, so the CLI's exhibit list
and the service's query surface are the same object and cannot drift.

A :class:`QuerySpec` carries the runner (``(store, params) -> result``),
the rendering metadata (title + header key into
:data:`repro.analysis.report.HEADERS`), and the serving policy
(cacheability, accepted parameters). Runners return the same objects the
``analysis/`` entry points return — serialization to wire format happens
only at the socket boundary (:func:`serialize_result`), so in-process
callers can assert byte-identical results against direct calls.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.analysis import (
    bandwidth_variability,
    dataset_summary,
    file_classification,
    insystem_domain_usage,
    interface_transfer_cdfs,
    interface_usage,
    large_files,
    layer_exclusivity,
    layer_volumes,
    performance_by_bin,
    request_cdfs,
    stdio_domain_usage,
    temporal_profile,
    transfer_cdfs,
    tuning_report,
    user_activity,
)
from repro.analysis.context import foldable_merge
from repro.analysis.report import HEADERS
from repro.errors import ServeError
from repro.platforms import get_platform


@dataclass(frozen=True)
class QuerySpec:
    """One named query: how to run it, render it, and serve it."""

    name: str
    title: str
    #: ``"table"`` (rows via ``to_rows()``), ``"shapes"`` (ShapeCheck
    #: list), ``"advice"`` (advisor dataclasses), or ``"meta"``
    #: (engine-level dict, e.g. ``stats``).
    kind: str
    #: Key into :data:`repro.analysis.report.HEADERS`; None when the
    #: result is not a table.
    header_key: str | None
    run: Callable[..., object]
    #: Parameter names accepted in a request's ``params`` object.
    param_names: tuple[str, ...] = ()
    #: Uncacheable queries (``stats``) recompute on every request and
    #: never coalesce.
    cacheable: bool = True
    #: Foldable queries answer with a result that registered its
    #: ``(compute, merge)`` (:func:`repro.analysis.context.register_foldable`);
    #: derived by :func:`default_registry`, never set by hand. On an
    #: append-only store mutation their memoized result is merged with
    #: the tail's in place, so :meth:`QueryEngine.refresh` can re-warm
    #: the result cache at the new generation with a cheap memo-hit
    #: rerun, and federation reduces them member-wise.
    foldable: bool = False
    #: Mergeable queries are pure functions of a store's tables, so the
    #: federation layer (:mod:`repro.federation`) may answer them across
    #: a catalog of stores — by exact member-wise reduction when the
    #: query only sums (see :data:`repro.federation.reduce.REDUCERS`),
    #: by a merged-store pass otherwise. What-if sweeps and advisors
    #: stay single-store: they model one platform's hardware.
    mergeable: bool = False

    @property
    def headers(self) -> list[str] | None:
        return HEADERS[self.header_key] if self.header_key else None


def validate_params(spec: QuerySpec, params: Mapping | None) -> dict:
    """Normalized, validated request parameters for a spec."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(spec.param_names))
    if unknown:
        accepted = ", ".join(spec.param_names) or "none"
        raise ServeError(
            f"query {spec.name!r} got unknown parameter(s) "
            f"{', '.join(unknown)}; accepted: {accepted}"
        )
    for key, value in params.items():
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ServeError(
                f"query {spec.name!r} parameter {key!r} must be a JSON "
                f"scalar, got {type(value).__name__}"
            )
    return params


def _exhibit(fn, **fixed):
    """Runner for a parameterless exhibit entry point.

    Entry points memoize their result under ``("result", <own name>,
    ...)``, so the runner records that name for :func:`exhibit_result`.
    """

    def run(store, params):
        return fn(store, **fixed)

    run.result_name = fn.__name__
    return run


def exhibit_result(spec: QuerySpec) -> str | None:
    """Name of the memoized analysis result ``spec`` answers with."""
    return getattr(spec.run, "result_name", None)


def _run_shapes(store, params):
    # Imported here: core.compare consumes analysis results, and the
    # registry is imported by cli/engine before any store exists.
    from repro.core.compare import run_shape_checks
    from repro.core.study import compute_results

    return run_shape_checks(compute_results(store))


# The advisors' defaults are deterministic, so their answers are
# functions of the store alone and memoize like the exhibits.
def _run_advise_staging(store, params):
    from repro.optimize import assess_staging

    return store.analysis().cached(
        ("result", "advise_staging"),
        lambda: assess_staging(store, get_platform(store.platform)),
    )


def _run_advise_aggregation(store, params):
    from repro.optimize import find_aggregation_opportunities

    opportunities = store.analysis().cached(
        ("result", "advise_aggregation"),
        lambda: find_aggregation_opportunities(store, get_platform(store.platform)),
    )
    # Always a slice: callers get their own list, never the memoized one.
    top = params.get("top")
    return opportunities[: None if top is None else int(top)]


def _whatif_runner(scenario_name):
    """Runner for one what-if scenario: a digital-twin sweep point.

    Cacheability does the heavy lifting here: the engine's result cache
    is keyed (query, sorted params, store generation), so a repeated
    sweep point on an unchanged store is a cache hit and any append
    invalidates every cached point.
    """

    def run(store, params):
        from repro.whatif import compute_point

        return compute_point(store, scenario_name, params)

    return run


def _whatif_specs() -> list[QuerySpec]:
    from repro.whatif import scenario_catalog

    return [
        QuerySpec(
            f"whatif_{name}",
            f"What-if - {scenario.title}",
            "table",
            "whatif",
            _whatif_runner(name),
            param_names=scenario.param_names,
        )
        for name, scenario in scenario_catalog().items()
    ]


def default_registry() -> dict[str, QuerySpec]:
    """Fresh name -> spec mapping for every built-in query."""
    specs = [
        QuerySpec("table2", "Table 2 - dataset summary", "table", "table2",
                  _exhibit(dataset_summary)),
        QuerySpec("table3", "Table 3 - files and volume per layer", "table",
                  "table3", _exhibit(layer_volumes)),
        QuerySpec("table4", "Table 4 - >1TB files", "table", "table4",
                  _exhibit(large_files)),
        QuerySpec("table5", "Table 5 - job layer exclusivity", "table",
                  "table5", _exhibit(layer_exclusivity)),
        QuerySpec("table6", "Table 6 - interface usage", "table", "table6",
                  _exhibit(interface_usage)),
        QuerySpec("fig3", "Figure 3 - transfer-size CDFs", "table", "fig3",
                  _exhibit(transfer_cdfs)),
        QuerySpec("fig4", "Figure 4 - request-size CDFs", "table", "fig4",
                  _exhibit(request_cdfs)),
        QuerySpec("fig5", "Figure 5 - request-size CDFs (large jobs)",
                  "table", "fig4",
                  _exhibit(request_cdfs, large_jobs_only=True)),
        QuerySpec("fig6", "Figure 6 - file classification", "table", "fig6",
                  _exhibit(file_classification)),
        QuerySpec("fig7", "Figure 7 - in-system domains", "table", "fig7",
                  _exhibit(insystem_domain_usage)),
        QuerySpec("fig8", "Figure 8 - STDIO classification", "table", "fig6",
                  _exhibit(file_classification, stdio_only=True)),
        QuerySpec("fig9", "Figure 9 - interface transfer CDFs", "table",
                  "fig9", _exhibit(interface_transfer_cdfs)),
        QuerySpec("fig10", "Figure 10 - STDIO domains", "table", "fig7",
                  _exhibit(stdio_domain_usage)),
        QuerySpec("fig11", "Figures 11/12 - POSIX vs STDIO bandwidth",
                  "table", "fig11", _exhibit(performance_by_bin)),
        QuerySpec("users", "User concentration (Lim et al. style)", "table",
                  "users", _exhibit(user_activity)),
        QuerySpec("temporal", "Temporal structure (Patel et al. style)",
                  "table", "temporal", _exhibit(temporal_profile)),
        QuerySpec("variability", "Bandwidth variability (TOKIO style)",
                  "table", "variability", _exhibit(bandwidth_variability)),
        QuerySpec("tuning", "User tuning trajectories (§5 future work)",
                  "table", "tuning", _exhibit(tuning_report)),
        QuerySpec("shapes", "Paper-vs-measured shape checks", "shapes", None,
                  _run_shapes),
        QuerySpec("advise_staging", "Staging advisor (burst-buffer offload)",
                  "advice", None, _run_advise_staging),
        QuerySpec("advise_aggregation",
                  "Aggregation advisor (request coalescing gains)", "advice",
                  None, _run_advise_aggregation, param_names=("top",)),
        *_whatif_specs(),
    ]
    # Every tabular exhibit is a pure function of the store tables and
    # thus federable across a catalog; what-if sweeps are not (they
    # model one platform's hardware parameters, not the fleet's union).
    # The foldable ones are the exhibits whose result registered a
    # merge with the analysis layer.
    specs = [
        dataclasses.replace(
            spec,
            mergeable=True,
            foldable=foldable_merge(exhibit_result(spec)) is not None,
        )
        if spec.kind == "table" and not spec.name.startswith("whatif_")
        else spec
        for spec in specs
    ]
    return {spec.name: spec for spec in specs}


def exhibit_names(registry: Mapping[str, QuerySpec] | None = None) -> list[str]:
    """Names servable by ``repro analyze`` (tabular exhibits)."""
    registry = registry if registry is not None else default_registry()
    return sorted(n for n, s in registry.items() if s.kind == "table")


def listing_payload(listing: str, items: list[dict]) -> dict:
    """The one JSON shape every CLI ``--list --json`` emits.

    ``repro analyze --list``, ``repro whatif --list``, and ``repro
    generate --list-specs`` all wrap their entries in this envelope —
    ``{"kind": "listing", "listing": <surface>, "items": [...]}`` with
    each item carrying at least ``name`` and ``title`` — so scripted
    consumers parse one shape regardless of which surface they asked.
    """
    for item in items:
        missing = {"name", "title"} - set(item)
        if missing:  # pragma: no cover - listing builders are internal
            raise ServeError(
                f"listing item missing keys {sorted(missing)}: {item!r}"
            )
    return {"kind": "listing", "listing": listing, "items": _jsonable(items)}


# -- wire serialization ------------------------------------------------------
def _jsonable(value):
    """Recursively coerce numpy scalars / non-finite floats for JSON."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / 'nan' — JSON has no literals for these
    return value


def serialize_result(spec: QuerySpec, result) -> dict:
    """JSON-safe wire form of a runner's result."""
    if isinstance(result, dict) and "kind" in result:
        # Already wire form: a federated runner routed the query to a
        # remote member, whose server serialized it on its side.
        return result
    if spec.kind == "table":
        items = result if isinstance(result, (list, tuple)) else [result]
        rows: list[list[str]] = []
        for item in items:
            rows.extend(item.to_rows())
        return {
            "kind": "table",
            "title": spec.title,
            "headers": spec.headers,
            "rows": _jsonable(rows),
        }
    if spec.kind == "shapes":
        checks = [dataclasses.asdict(c) for c in result]
        return {
            "kind": "shapes",
            "title": spec.title,
            "checks": _jsonable(checks),
            "passed": sum(c.passed for c in result),
            "failed": sum(not c.passed for c in result),
        }
    if spec.kind == "advice":
        items = result if isinstance(result, (list, tuple)) else [result]
        derived = ("speedup", "saved_seconds", "in_job_speedup", "worthwhile")
        payload = []
        for item in items:
            entry = dataclasses.asdict(item)
            entry.update(
                {k: getattr(item, k) for k in derived if hasattr(item, k)}
            )
            payload.append(_jsonable(entry))
        return {"kind": "advice", "title": spec.title, "items": payload}
    if spec.kind == "meta":
        return {"kind": "meta", "title": spec.title, **_jsonable(result)}
    raise ServeError(f"unknown result kind {spec.kind!r}")  # pragma: no cover
