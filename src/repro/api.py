"""The supported public API surface.

This module is the **stable contract** external callers should import
against — everything exported here (and lazily re-exported at the top
level, so ``from repro import run_query`` works) is covered by the API
snapshot test and will not change signature without a deliberate,
documented break. Deep module paths (``repro.analysis...``,
``repro.serve.engine...``) keep working, but only this surface is
promised.

The surface, by lifecycle stage:

* **Make data** — :func:`generate_store` (synthesize a platform's
  year, from the builtin archetype mix or a declarative spec),
  :func:`load_store` / :func:`save_store` (``.npz`` persistence),
  :class:`CharacterizationStudy` + :class:`StudyConfig` (the full
  multi-platform study pipeline).
* **Describe populations** — :func:`load_spec` / :func:`compile_spec` /
  :func:`list_specs` + :class:`WorkloadSpec` and the typed
  :class:`SpecError`: the declarative workload-pattern DSL and its
  builtin scenario packs (DESIGN.md §15); ``generate_store(spec=...)``
  turns a spec straight into a store.
* **Ask questions** — :func:`run_query` / :func:`list_queries`: every
  user-facing query — CLI exhibit, server query, advisor, shape check —
  resolves through the one :mod:`repro.serve.registry` table, so the
  in-process API, ``repro analyze``/``advise``/``shapes``, and ``repro
  serve`` can never drift apart.
* **Scale sideways** — :class:`StoreCatalog` / :func:`load_catalog`:
  the multi-store federation manifest (many facilities/months, local or
  remote members) behind ``repro catalog`` and the ``--catalog`` flags;
  see DESIGN.md §14.
* **Watch it run** — :class:`Tracer` with :func:`set_tracer` /
  :func:`get_tracer` and :func:`write_trace` (Chrome-trace/NDJSON
  export): cross-layer span tracing per DESIGN.md §10.

Example::

    import repro

    store = repro.generate_store("summit", scale=1e-3, seed=7)
    rows = repro.run_query(store, "table3")
    print(repro.list_queries())
"""

from __future__ import annotations

import functools
from typing import Mapping

from repro.core import CharacterizationStudy, StudyConfig
from repro.errors import ReproError, SpecError, UnknownQueryError
from repro.federation import StoreCatalog, load_catalog
from repro.obs import Tracer, get_tracer, set_tracer, write_trace
from repro.obs.integrate import analysis_span
from repro.spec import WorkloadSpec, compile_spec, load_spec
from repro.store.io import load_store, save_store
from repro.store.recordstore import RecordStore

__all__ = [
    "CharacterizationStudy",
    "RecordStore",
    "ReproError",
    "SpecError",
    "StoreCatalog",
    "StudyConfig",
    "Tracer",
    "WorkloadSpec",
    "compile_spec",
    "generate_store",
    "get_tracer",
    "list_queries",
    "list_specs",
    "load_catalog",
    "load_spec",
    "load_store",
    "run_query",
    "save_store",
    "set_tracer",
    "write_trace",
]


def generate_store(
    platform: str | None = None,
    *,
    spec: Mapping | WorkloadSpec | str | None = None,
    scale: float | None = None,
    seed: int = 20220627,
    shadows: bool = True,
) -> RecordStore:
    """Synthesize one platform's year as a :class:`RecordStore`.

    Two sources, one signature:

    * ``generate_store("summit", scale=1e-3)`` — the platform's builtin
      calibrated archetype mix (``scale`` defaults to ``1e-3``);
    * ``generate_store(spec="noisy_neighbor", platform="summit")`` — a
      declarative workload spec: a builtin scenario-pack name, a path to
      a ``.json``/``.toml`` spec file, a raw dict, or a
      :class:`WorkloadSpec`. ``platform``/``scale`` fill whatever the
      spec leaves unset (spec fields win); the builtin ``paper_mix``
      spec is byte-identical to the direct path.

    Deterministic in ``seed`` — for specs by construction, because
    compilation only produces archetype mixes for the same
    per-(archetype, group, log-block) RNG substreams. Generation runs
    in this process; it gained too little from a process pool to keep
    one (DESIGN.md §8). ``shadows`` appends the POSIX shadow rows
    for MPI-IO files (§3.1 accounting) — the representation every
    analysis and the study pipeline expect; pass ``False`` only to study
    the raw interface rows.
    """
    if spec is not None:
        from repro.spec import generate_from_spec

        return generate_from_spec(
            spec, seed=seed, shadows=shadows,
            platform=platform, scale=scale,
        )
    if platform is None:
        raise SpecError("platform", "required unless spec=... is given")
    from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

    generator = WorkloadGenerator(
        platform, GeneratorConfig(scale=1e-3 if scale is None else scale)
    )
    return generator.generate(seed, shadows=shadows)


def list_specs() -> list[str]:
    """Every builtin scenario-pack name ``generate_store(spec=...)``
    (and ``repro generate --spec``) accepts, sorted."""
    from repro.spec import pack_names

    return pack_names()


def run_query(
    store: RecordStore,
    name: str,
    params: Mapping | None = None,
) -> object:
    """Run one named query over a store, through the shared registry.

    The in-process twin of ``repro analyze``/``repro query``: the name
    resolves through the same :class:`~repro.serve.registry.QuerySpec`
    table the server and CLI dispatch on, and parameters are validated
    against the spec. Every query reads the store's one
    :class:`~repro.analysis.context.AnalysisContext`
    (:meth:`RecordStore.analysis`), the same one a
    :class:`~repro.serve.engine.QueryEngine` over the store uses, so
    the two share memoized results and return the same objects. A
    cold recompute needs a new ``RecordStore`` over the same arrays.

    Returns the query's native result object (rows via ``to_rows()``
    for tables, advisor dataclasses, ShapeCheck lists); raises
    :class:`~repro.errors.UnknownQueryError` for unknown names and
    :class:`~repro.errors.ServeError` for bad parameters.
    """
    from repro.serve.registry import validate_params

    registry = _query_registry()
    spec = registry.get(name)
    if spec is None:
        raise UnknownQueryError(
            f"unknown query {name!r}; available: {', '.join(sorted(registry))}"
        )
    params = validate_params(spec, params)
    with analysis_span(name, store.analysis()):
        return spec.run(store, params)


def list_queries() -> list[str]:
    """Every name :func:`run_query` accepts, sorted.

    The same names ``repro analyze --list`` prints and ``repro serve``
    answers (the server adds its two engine-level meta queries,
    ``stats`` and ``queries``, on top).
    """
    return sorted(_query_registry())


@functools.cache
def _query_registry() -> Mapping:
    """The built-in registry, built once per process.

    :func:`~repro.serve.registry.default_registry` builds every
    ``QuerySpec`` and the what-if catalog afresh on each call, and a
    study runs dozens of queries. The built-in table does not change at
    run time, so the API reads one shared copy; it hands out no
    reference to it, and never mutates it.
    """
    from repro.serve.registry import default_registry

    return default_registry()
