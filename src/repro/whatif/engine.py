"""The what-if replay engine: counterfactual time scaling over a store.

The digital-twin question is "what would *this* year's population have
measured under a reconfigured subsystem?". The engine answers it without
re-rolling any randomness: each stored time already embeds a realized
contention/noise draw (its production-load measurement), so a scenario
re-times a row by **ratio**, not by regeneration::

    time' = time x (bw_base / bw_scenario) x (E[frac_base] / E[frac_scn])

* ``bw_base / bw_scenario`` — both sides of the *deterministic*
  mechanism model (:class:`~repro.iosim.perfmodel.PerfModel` with
  sampling off) over the same reconstructed transfer spec
  (:mod:`repro.whatif.transfers`). Caps, parallelism exponents,
  request-size efficiency, fair-share and fabric ceilings all
  participate; the stored noise realization rides along untouched.
* ``E[frac]`` — the contention models' expected available fractions
  (:meth:`ContentionModel.mean_fraction`), shifting times by how much
  *more or less crowded* the scenario is in expectation while keeping
  each row's individual draw.

Both factors are **exactly 1.0** when a scenario leaves the relevant
mechanism alone — the identical spec through the identical model divides
to 1.0 bit-for-bit — which is what makes the identity scenario's output
bit-identical to the baseline (the differential suite's gate) and lets
every scenario share one code path with no special cases.

A point reads the store as contiguous columns through its
:class:`~repro.analysis.context.AnalysisContext`, never as 262-byte
rows: :func:`retime_columns` gathers each (layer, interface) group's
fields from the cached columns and returns only the four columns a
scenario changes (``read_time``, ``write_time``, ``meta_time``,
``layer``). Only :func:`materialize` assembles a whole file table.

The baseline half of every report — each (layer, direction)'s file
count, seconds and median bandwidth, plus the facility replay's demand
series — depends on the store alone, so it is computed once per store
generation and memoized in the context (an append drops it). The
machine enters only as the layer peaks each point divides the series
by. A plan that relocates no rows leaves bytes, layers and job windows
alone, so its outcome reuses the baseline's demand series as well.

``compute_point``, a serial :func:`sweep` and the pool worker share one
point function. A pooled sweep hands each worker the file table without
crossing the pool pipe (an ``mmap`` of the store's raw layout, or one
shared-memory :class:`~repro.fabric.Arena` copy) together with the
parent's memoized baseline; each point is computed wholly inside one
worker and only the small :class:`WhatIfReport` comes back. Point
independence plus the deterministic math make results
worker-count-invariant byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro import fabric
from repro.errors import WhatIfError
from repro.iosim.contention import ContentionModel
from repro.iosim.replay import demand_series, layer_demand
from repro.obs.tracer import trace_span
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_NAMES, LAYER_PFS
from repro.whatif.scenarios import ScenarioPlan, get_scenario
from repro.whatif.transfers import (
    SPEC_FIELDS,
    build_spec,
    layout_parallelism,
    nnodes_by_row,
)

#: Unused under deterministic models; sample_bandwidth's signature wants one.
_NULL_RNG = np.random.default_rng(0)

#: Rows re-timed per block: bounds the transfer-spec temporaries.
_CHUNK = 16384


@lru_cache(maxsize=64)
def _mean_fraction(model: ContentionModel) -> float:
    """Cached expectation: models are frozen dataclasses, hence hashable."""
    return model.mean_fraction()


def _contention_ratio(plan: ScenarioPlan, base_kind: str, scn_kind: str) -> float:
    """E[frac_base] / E[frac_scenario] for one layer-kind pairing.

    Guarded to exactly 1.0 for equal models on the same kind, so an
    untouched layer's times are multiplied by the float 1.0 (a bitwise
    no-op), never by an estimate of 1.
    """
    base = plan.contention_model(plan.base_perf, base_kind)
    scn = plan.contention_model(plan.perf, scn_kind)
    if base_kind == scn_kind and base == scn:
        return 1.0
    return _mean_fraction(base) / _mean_fraction(scn)


# -- re-timing --------------------------------------------------------------
#: The columns a scenario can change; every other field is the stored row's.
RETIMED = ("read_time", "write_time", "meta_time", "layer")


def retime_columns(
    store: RecordStore, plan: ScenarioPlan
) -> tuple[dict[str, np.ndarray], int]:
    """A scenario's re-timed columns over a store's rows.

    Returns ``(columns, moved)``: new arrays for each :data:`RETIMED`
    field, in row order and owned by the caller, and the number of rows
    the plan relocated to the in-system layer. The store is never
    mutated; its other fields are unchanged by every scenario.
    """
    ctx = store.analysis()
    col = ctx.column
    layer = col("layer")
    out = {name: col(name).copy() for name in RETIMED}
    moved = 0
    if plan.relocate_min_bytes is not None:
        move = (
            (layer == LAYER_PFS)
            & (col("bytes_read") == 0)
            & (col("bytes_written") >= plan.relocate_min_bytes)
        )
        moved = int(move.sum())
        out["layer"][move] = LAYER_INSYSTEM
    # Rows group by (origin layer, destination layer): origin drives the
    # baseline mechanism value, destination the scenario's. Rows on the
    # "other" layer carry no layer model and keep their times.
    for oc in (LAYER_PFS, LAYER_INSYSTEM):
        oidx = ctx.idx(("layer", oc))
        dest = out["layer"][oidx]
        for nc in (LAYER_PFS, LAYER_INSYSTEM):
            gidx = oidx[dest == nc]
            if len(gidx):
                _retime_group(store, plan, oc, nc, gidx, out)
    return out, moved


def _retime_group(
    store: RecordStore,
    plan: ScenarioPlan,
    oc: int,
    nc: int,
    gidx: np.ndarray,
    out: dict[str, np.ndarray],
) -> None:
    """Re-time the rows ``gidx`` moving from layer ``oc`` to ``nc``."""
    ctx = store.analysis()
    col = ctx.column
    nnodes = ctx.cached(
        ("whatif.nnodes",), lambda: nnodes_by_row(col("job_id"), store.jobs)
    )
    sizes = ctx.transfer_sizes()
    fields = {name: col(name) for name in SPEC_FIELDS}
    base_layer = plan.base_machine.layers[LAYER_NAMES[oc]]
    scn_layer = plan.machine.layers[LAYER_NAMES[nc]]
    cratio = _contention_ratio(plan, base_layer.kind.value, scn_layer.kind.value)
    factor = plan.parallelism_factor(LAYER_NAMES[nc])
    meta_ratio = scn_layer.base_latency / base_layer.base_latency
    gi = col("interface")[gidx]
    for code in np.flatnonzero(np.bincount(gi)):
        interface = IOInterface(int(code))
        iidx = gidx[gi == code]
        # Every step below is elementwise, so a fixed-size block of rows
        # at a time gives the same values with bounded temporaries.
        for lo in range(0, len(iidx), _CHUNK):
            idx = iidx[lo:lo + _CHUNK]
            rows = {name: values[idx] for name, values in fields.items()}
            rn = nnodes[idx]
            gsizes = sizes[idx].astype(np.float64)
            base_par = layout_parallelism(store.platform, oc,
                                          plan.base_machine, gsizes, rn)
            scn_par = layout_parallelism(store.platform, nc, plan.machine,
                                         gsizes, rn, factor=factor)
            for direction, time_col in (
                ("read", "read_time"), ("write", "write_time")
            ):
                spec = build_spec(rows, rn, base_par, direction)
                bw_base = plan.base_perf.sample_bandwidth(
                    base_layer, interface, direction, spec, _NULL_RNG
                )
                bw_scn = plan.perf.sample_bandwidth(
                    scn_layer, interface, direction,
                    replace(spec, file_parallelism=scn_par), _NULL_RNG,
                )
                out[time_col][idx] = (
                    col(time_col)[idx] * (bw_base / bw_scn) * cratio
                )
            # Metadata follows the destination layer's latency floor.
            out["meta_time"][idx] = col("meta_time")[idx] * meta_ratio


# -- metrics -----------------------------------------------------------------
@dataclass(frozen=True)
class PointMetrics:
    """One (layer, direction)'s aggregate view of a file table."""

    layer: str
    direction: str
    #: Unique-accounting rows (non-MPI-IO) that moved bytes this way.
    files: int
    #: Total modeled transfer seconds over those rows.
    seconds: float
    #: Median delivered per-file bandwidth, bytes/s.
    median_bw: float
    #: Peak layer utilization from the facility replay.
    peak_util: float


_METRIC_AXES = tuple(
    (layer_key, code, direction, bytes_col, time_col)
    for layer_key, code in (("pfs", LAYER_PFS), ("insystem", LAYER_INSYSTEM))
    for direction, bytes_col, time_col in (
        ("read", "bytes_read", "read_time"),
        ("write", "bytes_written", "write_time"),
    )
)


def _tallies(store: RecordStore, times, layer=None) -> tuple:
    """(files, seconds, median bandwidth) per :data:`_METRIC_AXES` entry.

    ``times`` maps ``read_time``/``write_time`` to per-row arrays;
    ``layer`` replaces the store's layer column (a relocation), else the
    context's cached selections are used.
    """
    ctx = store.analysis()
    out = []
    for _, code, _, bytes_col, time_col in _METRIC_AXES:
        if layer is None:
            sel = ctx.idx("unique", ("layer", code), ("pos", bytes_col))
        else:
            sel = np.flatnonzero(
                ctx.mask("unique") & (layer == code)
                & ctx.mask(("pos", bytes_col))
            )
        t = times[time_col][sel]
        median = 0.0
        if len(sel):
            b = ctx.column(bytes_col)[sel].astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                bw = np.where(t > 0, b / t, np.nan)
            if np.isfinite(bw).any():
                median = float(np.nanmedian(bw))
        out.append((len(sel), float(t.sum()), median))
    return tuple(out)


def _series(store: RecordStore, layer=None):
    """The facility replay's demand series, or None without rows or jobs."""
    if not (len(store.files) and len(store.jobs)):
        return None
    return demand_series(store, layer)


def _metrics(tallies, series, machine: Machine) -> tuple[PointMetrics, ...]:
    """Tallies plus each layer's peak utilization on ``machine``.

    Utilization is the replay's series over ``machine``'s layer peak —
    a degraded machine's shrunken peaks raise utilization even where
    demand is unchanged, which is the fault scenarios' operator view.
    """
    out = []
    for (layer_key, _, direction, _, _), tally in zip(_METRIC_AXES, tallies):
        key = (layer_key, direction)
        peak = (
            layer_demand(machine, key, series[key]).peak_utilization()
            if series is not None
            else 0.0
        )
        out.append(PointMetrics(layer_key, direction, *tally, peak))
    return tuple(out)


def _baseline(store: RecordStore) -> tuple:
    """The store's own (tallies, demand series), memoized per generation.

    Neither half depends on a machine or a plan, so every point on the
    store shares them; an append bumps the generation and drops the
    entry with the rest of the context's memo.
    """
    ctx = store.analysis()

    def compute():
        with trace_span("whatif.baseline", "whatif") as sp:
            if sp is not None:
                sp.add(rows=len(store.files))
            times = {name: ctx.column(name) for name in ("read_time", "write_time")}
            return _tallies(store, times), _series(store)

    return ctx.cached(_baseline_key(store), compute)


def _baseline_key(store: RecordStore) -> tuple:
    # The series divide by the store's scale; everything else the
    # baseline reads is the store's current generation.
    return ("whatif.baseline", store.scale)


@dataclass(frozen=True)
class WhatIfReport:
    """One sweep point's baseline-vs-scenario delta report."""

    platform: str
    scenario: str
    params: tuple[tuple[str, float], ...]
    baseline: tuple[PointMetrics, ...]
    outcome: tuple[PointMetrics, ...]
    #: Rows the plan relocated to the in-system layer.
    moved_files: int = 0

    @property
    def label(self) -> str:
        if not self.params:
            return self.scenario
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.scenario}({inner})"

    def metric(self, layer: str, direction: str, *, baseline: bool = False):
        pool = self.baseline if baseline else self.outcome
        for m in pool:
            if m.layer == layer and m.direction == direction:
                return m
        raise WhatIfError(f"no metrics for ({layer!r}, {direction!r})")

    def time_ratio(self, layer: str, direction: str) -> float:
        """Scenario seconds over baseline seconds (1.0 = unchanged)."""
        base = self.metric(layer, direction, baseline=True).seconds
        scn = self.metric(layer, direction).seconds
        if base == 0.0:
            return 1.0 if scn == 0.0 else float("inf")
        return scn / base

    def to_rows(self) -> list[list[str]]:
        rows = []
        for base, scn in zip(self.baseline, self.outcome):
            if base.seconds == 0.0:
                ratio = 1.0 if scn.seconds == 0.0 else float("inf")
            else:
                ratio = scn.seconds / base.seconds
            files = f"{scn.files:,}"
            if scn.files != base.files:
                files += f" ({scn.files - base.files:+,})"
            rows.append([
                self.platform,
                self.label,
                base.layer,
                base.direction,
                files,
                f"{base.seconds:,.0f}",
                f"{scn.seconds:,.0f}",
                f"{ratio:.3f}x",
                f"{base.median_bw / 1e6:,.1f}",
                f"{scn.median_bw / 1e6:,.1f}",
                f"{100 * base.peak_util:.2f}%",
                f"{100 * scn.peak_util:.2f}%",
            ])
        return rows


# -- entry points ------------------------------------------------------------
def compute_point(
    store: RecordStore,
    scenario: str,
    params: Mapping | None = None,
) -> WhatIfReport:
    """One sweep point, computed inline against a store."""
    plan = get_scenario(scenario).plan(store.platform, params)
    return _point(store, plan)


def _point(store: RecordStore, plan: ScenarioPlan) -> WhatIfReport:
    """The one point path: ``compute_point``, ``sweep`` and pool workers."""
    with trace_span("whatif.point", "whatif") as sp:
        if sp is not None:
            sp.add(scenario=plan.scenario, rows=len(store.files))
        tallies, series = _baseline(store)
        columns, moved = retime_columns(store, plan)
        # A plan that moves no row leaves bytes, layers and job windows
        # as stored: the outcome keeps the baseline's selections and
        # demand series, and only the peaks it is divided by change.
        layer = columns["layer"] if moved else None
        return WhatIfReport(
            platform=store.platform,
            scenario=plan.scenario,
            params=plan.params,
            baseline=_metrics(tallies, series, plan.base_machine),
            outcome=_metrics(
                _tallies(store, columns, layer),
                _series(store, layer) if moved else series,
                plan.machine,
            ),
            moved_files=moved,
        )


def materialize(
    store: RecordStore,
    scenario: str,
    params: Mapping | None = None,
) -> RecordStore:
    """A new store holding the scenario's re-timed population.

    The twin as data: every downstream instrument — analyses, the serve
    registry, the facility replay — runs on the materialized store
    exactly as on a generated one. The identity scenario's output is
    bit-identical to the input's tables.
    """
    plan = get_scenario(scenario).plan(store.platform, params)
    columns, _ = retime_columns(store, plan)
    files = store.files.copy()
    for name, values in columns.items():
        files[name] = values
    return RecordStore(
        store.platform,
        files,
        store.jobs.copy(),
        domains=store.domains,
        extensions=store.extensions,
        scale=store.scale,
    )


def sweep(
    store: RecordStore,
    scenario: str,
    points: Sequence[Mapping | None],
    *,
    jobs: int | None = None,
) -> list[WhatIfReport]:
    """Replay a scenario at every parameter point.

    ``jobs`` > 1 fans the points over the process pool; on a 2-core host
    that is slower than the serial path (DESIGN.md §8).

    Returns one :class:`WhatIfReport` per point, in point order. The
    baseline is the store's memoized one, computed at most once (in the
    parent) and shared by every point. Results are byte-identical for
    every worker count: each point is computed wholly inside one worker
    from the same shared rows, and the math is deterministic. For a
    point's re-timed store, call :func:`materialize`.
    """
    from repro.parallel import resolve_jobs, run_sharded

    scn = get_scenario(scenario)
    points = list(points)
    if not points:
        raise WhatIfError(f"scenario {scenario!r}: sweep expanded to no points")
    plans = [scn.plan(store.platform, p) for p in points]
    njobs = resolve_jobs(jobs)
    with trace_span("whatif.sweep", "whatif") as sp:
        if sp is not None:
            sp.add(scenario=scenario, points=len(plans), jobs=njobs,
                   rows=len(store.files))
        baseline = _baseline(store)
        if njobs <= 1 or len(plans) <= 1:
            return [_point(store, plan) for plan in plans]

        backing, arena = _export_backing(store)
        try:
            payloads = [
                (backing, store.jobs, store.platform, store.scale,
                 store.domains, plan, baseline)
                for plan in plans
            ]
            return run_sharded(_sweep_shard, payloads, jobs=njobs)
        finally:
            if arena is not None:
                arena.close()


def _export_backing(store: RecordStore):
    """Zero-copy row hand-off: raw-layout stores are mmapped by workers
    (shared page cache), others are copied once into a shared-memory
    arena."""
    path = getattr(store, "files_path", None)
    if path is not None and isinstance(store.files, np.memmap):
        return ("mmap", path), None
    arena = fabric.Arena(store.files.dtype, store.files.shape)
    arena.view()[...] = store.files
    return ("arena", arena.spec), arena


def _open_rows(backing) -> np.ndarray:
    """Worker side of :func:`_export_backing`: the shared rows.

    An arena attaches through the fabric's per-process attach cache, so
    a pool worker maps it once per sweep, not once per point.
    """
    kind, src = backing
    if kind == "mmap":
        return np.load(src, mmap_mode="r", allow_pickle=False)
    return src.open()


def _sweep_shard(payload):
    """Pool worker: one sweep point, end to end. Module-level so it
    pickles under any start method."""
    backing, jobs, platform, scale, domains, plan, baseline = payload
    with trace_span("whatif.shard", "whatif") as sp:
        if sp is not None:
            sp.add(scenario=plan.scenario)
        store = RecordStore(platform, _open_rows(backing), jobs,
                            domains=domains, scale=scale)
        # Seed the worker's context with the parent's baseline, so the
        # shared point path finds it memoized.
        store.analysis().cached(_baseline_key(store), lambda: baseline)
        return _point(store, plan)
