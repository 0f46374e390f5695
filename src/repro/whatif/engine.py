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

Sweeps fan points across the process pool
(:func:`repro.parallel.run_sharded`): the file table travels to workers
without crossing the pool pipe (an ``mmap`` of the store's raw layout,
or one shared-memory :class:`~repro.fabric.Arena` copy), each sweep
point is computed wholly inside one worker, and only the small
:class:`WhatIfReport` comes back. Point independence plus the
deterministic math make results worker-count-invariant byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro import fabric
from repro.errors import WhatIfError
from repro.iosim.contention import ContentionModel
from repro.iosim.replay import FacilityReplay
from repro.obs.tracer import trace_span
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_NAMES, LAYER_PFS
from repro.whatif.scenarios import ScenarioPlan, get_scenario
from repro.whatif.transfers import build_spec, layout_parallelism, nnodes_by_row

#: Unused under deterministic models; sample_bandwidth's signature wants one.
_NULL_RNG = np.random.default_rng(0)


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


# -- replay ------------------------------------------------------------------
def replay_files(
    files: np.ndarray,
    jobs: np.ndarray,
    plan: ScenarioPlan,
    platform: str,
) -> tuple[np.ndarray, int]:
    """A scenario's file table: stored rows re-timed under the plan.

    Returns ``(new_files, moved)`` where ``moved`` counts rows the plan
    relocated to the in-system layer. The input table is never mutated.
    """
    out = files.copy()
    n = len(files)
    if n == 0:
        return out, 0
    nnodes = nnodes_by_row(files, jobs)
    sizes = (files["bytes_read"] + files["bytes_written"]).astype(np.float64)
    orig_layer = files["layer"]
    new_layer = orig_layer.copy()
    moved = 0
    if plan.relocate_min_bytes is not None:
        move = (
            (orig_layer == LAYER_PFS)
            & (files["bytes_read"] == 0)
            & (files["bytes_written"] >= plan.relocate_min_bytes)
        )
        moved = int(move.sum())
        new_layer[move] = LAYER_INSYSTEM
        out["layer"] = new_layer

    # Rows group by (origin layer, destination layer): origin drives the
    # baseline mechanism value, destination the scenario's.
    pair = orig_layer.astype(np.int32) * 256 + new_layer
    for pk in np.unique(pair):
        oc, nc = int(pk) // 256, int(pk) % 256
        if oc not in (LAYER_PFS, LAYER_INSYSTEM):
            continue  # unmounted/"other" rows carry no layer model
        base_layer = plan.base_machine.layers[LAYER_NAMES[oc]]
        scn_layer = plan.machine.layers[LAYER_NAMES[nc]]
        gmask = pair == pk
        base_par = layout_parallelism(
            platform, oc, plan.base_machine, sizes[gmask], nnodes[gmask]
        )
        scn_par = layout_parallelism(
            platform, nc, plan.machine, sizes[gmask], nnodes[gmask],
            factor=plan.parallelism_factor(LAYER_NAMES[nc]),
        )
        cratio = _contention_ratio(
            plan, base_layer.kind.value, scn_layer.kind.value
        )
        gidx = np.flatnonzero(gmask)
        for iface_code in np.unique(files["interface"][gmask]):
            interface = IOInterface(int(iface_code))
            local = files["interface"][gidx] == iface_code
            idx = gidx[local]
            rows = files[idx]
            rn = nnodes[idx]
            for direction, time_col in (
                ("read", "read_time"), ("write", "write_time")
            ):
                spec = build_spec(rows, rn, base_par[local], direction)
                bw_base = plan.base_perf.sample_bandwidth(
                    base_layer, interface, direction, spec, _NULL_RNG
                )
                bw_scn = plan.perf.sample_bandwidth(
                    scn_layer, interface, direction,
                    replace(spec, file_parallelism=scn_par[local]),
                    _NULL_RNG,
                )
                out[time_col][idx] = (
                    files[time_col][idx] * (bw_base / bw_scn) * cratio
                )
        # Metadata follows the destination layer's latency floor.
        out["meta_time"][gidx] = files["meta_time"][gidx] * (
            scn_layer.base_latency / base_layer.base_latency
        )
    return out, moved


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


class _StoreView:
    """The minimal store shape FacilityReplay needs, without a copy."""

    def __init__(self, files, jobs, scale, platform):
        self.files = files
        self.jobs = jobs
        self.scale = scale
        self.platform = platform


def point_metrics(
    files: np.ndarray,
    jobs: np.ndarray,
    machine: Machine,
    scale: float,
    platform: str,
) -> tuple[PointMetrics, ...]:
    """Per-(layer, direction) metrics of one file table on one machine.

    Utilization comes from a :class:`FacilityReplay` against ``machine``
    — a degraded machine's shrunken peaks raise utilization even where
    demand is unchanged, which is the fault scenarios' operator view.
    """
    unique = files["interface"] != int(IOInterface.MPIIO)
    replay = (
        FacilityReplay(_StoreView(files, jobs, scale, platform), machine)
        if len(files) and len(jobs)
        else None
    )
    out = []
    for layer_key, code in (("pfs", LAYER_PFS), ("insystem", LAYER_INSYSTEM)):
        lmask = unique & (files["layer"] == code)
        for direction, bytes_col, time_col in (
            ("read", "bytes_read", "read_time"),
            ("write", "bytes_written", "write_time"),
        ):
            sel = lmask & (files[bytes_col] > 0)
            nfiles = int(sel.sum())
            seconds = float(files[time_col][sel].sum())
            if nfiles:
                t = files[time_col][sel]
                b = files[bytes_col][sel].astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    bw = np.where(t > 0, b / t, np.nan)
                median = float(np.nanmedian(bw)) if np.isfinite(bw).any() else 0.0
            else:
                median = 0.0
            peak = (
                replay.demand(layer_key, direction).peak_utilization()
                if replay is not None
                else 0.0
            )
            out.append(
                PointMetrics(layer_key, direction, nfiles, seconds, median, peak)
            )
    return tuple(out)


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
    with trace_span("whatif.point", "whatif") as sp:
        if sp is not None:
            sp.add(scenario=plan.scenario, rows=len(store.files))
        report, _ = _point(store.files, store.jobs, store.scale,
                           store.platform, plan, baseline=None)
        return report


def _point(files, jobs, scale, platform, plan, *, baseline):
    """(report, scenario file table) for one resolved plan."""
    scn_files, moved = replay_files(files, jobs, plan, platform)
    if baseline is None:
        baseline = point_metrics(files, jobs, plan.base_machine, scale, platform)
    outcome = point_metrics(scn_files, jobs, plan.machine, scale, platform)
    report = WhatIfReport(
        platform=platform,
        scenario=plan.scenario,
        params=plan.params,
        baseline=baseline,
        outcome=outcome,
        moved_files=moved,
    )
    return report, scn_files


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
    scn_files, _ = replay_files(store.files, store.jobs, plan, store.platform)
    return RecordStore(
        store.platform,
        scn_files,
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
    """Replay a scenario at every parameter point, fanning out over the pool.

    Returns one :class:`WhatIfReport` per point, in point order. The
    baseline metrics are computed once (in the parent) and shared by
    every point. Results are byte-identical for every worker count:
    each point is computed wholly inside one worker from the same
    shared rows, and the math is deterministic. For a point's re-timed
    store, call :func:`materialize`.
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
        baseline = point_metrics(
            store.files, store.jobs, plans[0].base_machine,
            store.scale, store.platform,
        )
        if njobs <= 1 or len(plans) <= 1:
            return [
                _point(store.files, store.jobs, store.scale, store.platform,
                       plan, baseline=baseline)[0]
                for plan in plans
            ]

        backing, arena = _export_backing(store)
        try:
            payloads = [
                (backing, store.jobs, store.platform, store.scale, plan,
                 baseline)
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
    backing, jobs, platform, scale, plan, baseline = payload
    with trace_span("whatif.shard", "whatif") as sp:
        if sp is not None:
            sp.add(scenario=plan.scenario)
        files = _open_rows(backing)
        with trace_span("whatif.point", "whatif") as pt:
            if pt is not None:
                pt.add(scenario=plan.scenario, rows=len(files))
            report, _ = _point(
                files, jobs, scale, platform, plan, baseline=baseline
            )
        return report
