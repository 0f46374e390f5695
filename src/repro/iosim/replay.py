"""Facility replay: aggregate layer demand over time from a store.

The paper's findings are phrased job-by-job; facility operators care
about the *aggregate* view — how much bandwidth demand each storage layer
sees over the year, how close to peak the layers run, and what staging
would do to that picture. This engine replays a store's per-file I/O as
load on its platform's layers:

* each file record contributes its bytes over its job's execution window
  (uniformly — Darshan without DXT gives no finer placement), split by
  layer and direction;
* demand is accumulated into a time-binned series per (layer, direction)
  via a difference-array sweep (O(files + bins), no per-bin loops);
* utilization compares demand against the layer's peak bandwidth.

Rows reach their job windows through one sorted join over the job table
(:func:`join_jobs`), and every per-row input is read as a contiguous
column of the store's :class:`~repro.analysis.context.AnalysisContext`.
The series depend only on bytes, layer and job windows — never on the
machine — so :func:`demand_series` is shared with the what-if engine,
which divides one store's series by each scenario's layer peaks.

This is the instrument behind ``repro replay``, the capacity-planning
example and the what-if reports' peak-utilization columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.platforms.machine import Machine
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_CODES


@dataclass(frozen=True)
class LayerDemand:
    """Bandwidth demand series for one (layer, direction)."""

    layer: str
    direction: str
    bin_seconds: float
    #: Mean demanded bandwidth per bin, bytes/second (full-year scale).
    series: np.ndarray
    peak_bandwidth: float

    def utilization(self) -> np.ndarray:
        """Demand over layer peak, per bin."""
        return self.series / self.peak_bandwidth

    def peak_utilization(self) -> float:
        return float(self.utilization().max()) if len(self.series) else 0.0

    def mean_utilization(self) -> float:
        return float(self.utilization().mean()) if len(self.series) else 0.0

    def saturated_fraction(self, threshold: float = 0.8) -> float:
        """Fraction of time bins demanding more than ``threshold`` of peak."""
        if not len(self.series):
            return 0.0
        return float((self.utilization() > threshold).mean())


def layer_demand(
    machine: Machine,
    key: tuple[str, str],
    series: np.ndarray,
    bin_seconds: float = 3600.0,
) -> LayerDemand:
    """One :func:`demand_series` entry against ``machine``'s layer peak."""
    layer_key, direction = key
    layer = machine.layers[layer_key]
    return LayerDemand(
        layer=layer_key,
        direction=direction,
        bin_seconds=bin_seconds,
        series=series,
        peak_bandwidth=(
            layer.peak_read_bw if direction == "read" else layer.peak_write_bw
        ),
    )


def join_jobs(
    job_ids: np.ndarray, jobs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each id's row in ``jobs``, by one sorted-index join.

    Returns ``(pos, found)``: where ``found[i]``, ``jobs[pos[i]]`` is the
    job of ``job_ids[i]``; elsewhere ``pos[i]`` means nothing. When the
    job table lists an id more than once, its last row wins, as a dict
    built over the table in order would keep it.
    """
    job_ids = np.asarray(job_ids)
    if not len(jobs):
        return (
            np.zeros(len(job_ids), dtype=np.intp),
            np.zeros(len(job_ids), dtype=bool),
        )
    order = np.argsort(jobs["job_id"], kind="stable")
    ids = jobs["job_id"][order]
    # side="right" lands past every equal id; one step back is the last
    # of them, and the stable sort keeps table order among equals.
    at = np.maximum(np.searchsorted(ids, job_ids, side="right") - 1, 0)
    return order[at], ids[at] == job_ids


def job_windows(store: RecordStore) -> tuple[np.ndarray, np.ndarray]:
    """(start, runtime) of each unique-accounting row's job, cached.

    Rows follow the context's ``idx("unique")``; runtimes are floored
    at one second. A row whose job id is missing from the job table
    raises :class:`~repro.errors.AnalysisError` naming that id.
    """
    ctx = store.analysis()

    def compute() -> tuple[np.ndarray, np.ndarray]:
        jobs = store.jobs
        job_ids = ctx.column("job_id")[ctx.idx("unique")]
        pos, found = join_jobs(job_ids, jobs)
        if not found.all():
            missing = np.unique(job_ids[~found])
            raise AnalysisError(
                f"file rows reference job id {int(missing[0])}, which is "
                f"not in the job table ({len(missing)} missing id(s))"
            )
        starts = jobs["start_time"][pos].astype(np.float64)
        runtimes = np.maximum(jobs["runtime"][pos].astype(np.float64), 1.0)
        return starts, runtimes

    return ctx.cached(("replay.windows",), compute)


def demand_series(
    store: RecordStore,
    layer: np.ndarray | None = None,
    *,
    bin_seconds: float = 3600.0,
) -> dict[tuple[str, str], np.ndarray]:
    """Demand per (layer key, direction): bytes/s per bin, full scale.

    ``layer`` replaces the store's layer column (a what-if relocation);
    by default the store's own placement is replayed. Only
    unique-accounting (non-MPI-IO) rows contribute, and no machine
    enters: a layer's utilization is its series over its peak.
    """
    ctx = store.analysis()
    jobs = store.jobs
    uidx = ctx.idx("unique")
    starts, runtimes = job_windows(store)
    if layer is None:
        layer = ctx.column("layer")
    ulayer = layer[uidx]
    horizon = float((jobs["start_time"] + jobs["runtime"]).max())
    nbins = max(int(np.ceil(horizon / bin_seconds)), 1)

    out: dict[tuple[str, str], np.ndarray] = {}
    for layer_key, code in LAYER_CODES.items():
        if layer_key == "other":
            continue
        mask = ulayer == code
        rows = uidx[mask]
        for direction, col in (
            ("read", "bytes_read"), ("write", "bytes_written")
        ):
            series = _accumulate(
                starts[mask],
                runtimes[mask],
                ctx.column(col)[rows].astype(np.float64),
                nbins,
                bin_seconds,
            )
            out[(layer_key, direction)] = series / store.scale
    return out


def _accumulate(
    starts: np.ndarray,
    durations: np.ndarray,
    nbytes: np.ndarray,
    nbins: int,
    bin_seconds: float,
) -> np.ndarray:
    """Spread each transfer's bytes over its window (difference array).

    A transfer of B bytes spanning bins [first, last] contributes
    B / (last - first + 1) bytes to each spanned bin; the series is
    then divided by the bin width to yield mean bandwidth per bin.
    Byte totals are conserved exactly (tested); sub-bin placement is
    uniform, which is the best Darshan-without-DXT data supports.
    """
    active = nbytes > 0
    if not active.any():
        return np.zeros(nbins, dtype=np.float64)
    starts = starts[active]
    durations = durations[active]
    nbytes = nbytes[active]
    first = np.clip((starts / bin_seconds).astype(np.int64), 0, nbins - 1)
    last = np.clip(
        ((starts + durations) / bin_seconds).astype(np.int64),
        first,
        nbins - 1,
    )
    per_bin = nbytes / (last - first + 1)
    diff = np.zeros(nbins + 1, dtype=np.float64)
    np.add.at(diff, first, per_bin)
    np.add.at(diff, last + 1, -per_bin)
    return np.cumsum(diff[:-1]) / bin_seconds


class FacilityReplay:
    """Replays a store's I/O as time-binned layer demand."""

    def __init__(
        self,
        store: RecordStore,
        machine: Machine,
        *,
        bin_seconds: float = 3600.0,
    ):
        if bin_seconds <= 0:
            raise AnalysisError("bin_seconds must be positive")
        self.store = store
        self.machine = machine
        self.bin_seconds = bin_seconds
        self._demands: dict[tuple[str, str], LayerDemand] | None = None

    # ------------------------------------------------------------------
    def demands(self) -> dict[tuple[str, str], LayerDemand]:
        """Demand series per (layer key, direction). Computed once."""
        if self._demands is None:
            self._demands = self._compute()
        return self._demands

    def demand(self, layer: str, direction: str) -> LayerDemand:
        try:
            return self.demands()[(layer, direction)]
        except KeyError:
            raise AnalysisError(
                f"no demand series for ({layer!r}, {direction!r})"
            ) from None

    def _compute(self) -> dict[tuple[str, str], LayerDemand]:
        if not len(self.store.jobs):
            raise AnalysisError("store has no jobs")
        series = demand_series(self.store, bin_seconds=self.bin_seconds)
        return {
            key: layer_demand(self.machine, key, values, self.bin_seconds)
            for key, values in series.items()
        }

    # ------------------------------------------------------------------
    def summary_rows(self) -> list[list[str]]:
        rows = []
        for (layer, direction), demand in sorted(self.demands().items()):
            rows.append(
                [
                    self.store.platform,
                    layer,
                    direction,
                    f"{demand.mean_utilization() * 100:.2f}%",
                    f"{demand.peak_utilization() * 100:.2f}%",
                    f"{demand.saturated_fraction() * 100:.2f}%",
                ]
            )
        return rows
