"""Figures 11 and 12: POSIX vs STDIO bandwidth by transfer-size bin.

Exactly the paper's §3.4 methodology:

* restrict to *single shared files* — records with rank −1, where all
  processes participate and the accumulated timers cover the whole
  concurrent access (per-rank partial records leave synchronization
  uncertain, so they are excluded);
* per-file bandwidth = ``BYTES_{READ,WRITTEN} / F_{READ,WRITE}_TIME``;
* group by bins of the direction's transfer size and box-plot per bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import BoxStats, boxplot_stats
from repro.analysis.context import AnalysisContext
from repro.darshan.bins import TRANSFER_SIZE_BINS, SizeBins
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore


@dataclass(frozen=True)
class PerformanceByBin:
    """One panel of Figure 11/12: boxes per bin for POSIX and STDIO."""

    platform: str
    layer: str
    direction: str
    bin_labels: tuple[str, ...]
    #: {interface label: tuple of BoxStats, one per bin}
    boxes: dict[str, tuple[BoxStats, ...]]

    def median_speedup(self, bin_label: str) -> float:
        """POSIX-over-STDIO median bandwidth ratio in one bin.

        NaN when either box is empty — the paper had missing boxes too
        ("some of the boxplots are missing because of the absence of
        files in that size range").
        """
        i = self.bin_labels.index(bin_label)
        posix = self.boxes["POSIX"][i]
        stdio = self.boxes["STDIO"][i]
        if posix.n == 0 or stdio.n == 0 or stdio.median == 0:
            return float("nan")
        return posix.median / stdio.median

    def to_rows(self) -> list[list[str]]:
        rows = []
        for iface, per_bin in self.boxes.items():
            for label, box in zip(self.bin_labels, per_bin):
                if box.n == 0:
                    continue
                rows.append(
                    [
                        self.platform,
                        self.layer,
                        self.direction,
                        iface,
                        label,
                        str(box.n),
                        f"{box.median / 1e6:.1f}",
                        f"{box.q1 / 1e6:.1f}",
                        f"{box.q3 / 1e6:.1f}",
                    ]
                )
        return rows


def performance_by_bin(
    store: RecordStore,
    *,
    bins: SizeBins = TRANSFER_SIZE_BINS,
) -> list[PerformanceByBin]:
    """Compute all four panels (layer x direction) for one platform."""
    ctx = store.analysis()
    key = ("result", "performance_by_bin", bins.name, bins.edges)
    return ctx.cached(key, lambda: _compute(ctx, bins))


def _compute(ctx: AnalysisContext, bins: SizeBins) -> list[PerformanceByBin]:
    store = ctx.store
    out = []
    for layer, code in ctx.layer_items():
        for direction, bytes_col, time_col in (
            ("read", "bytes_read", "read_time"),
            ("write", "bytes_written", "write_time"),
        ):
            boxes: dict[str, tuple[BoxStats, ...]] = {}
            for iface in (IOInterface.POSIX, IOInterface.STDIO):
                keys = ("shared", ("layer", code), ("interface", int(iface)))
                nbytes = ctx.gather(bytes_col, *keys).astype(np.float64)
                times = ctx.gather(time_col, *keys)
                valid = (nbytes > 0) & (times > 0)
                nbytes, times = nbytes[valid], times[valid]
                bw = nbytes / times
                bin_idx = bins.index_array(nbytes)
                per_bin = []
                for b in range(bins.nbins):
                    per_bin.append(boxplot_stats(bw[bin_idx == b]))
                boxes[iface.label] = tuple(per_bin)
            if any(box.n for per in boxes.values() for box in per):
                out.append(
                    PerformanceByBin(
                        platform=store.platform,
                        layer=layer,
                        direction=direction,
                        bin_labels=bins.labels,
                        boxes=boxes,
                    )
                )
    return out


def panel(
    results: list[PerformanceByBin], layer: str, direction: str
) -> PerformanceByBin:
    """Select one panel from :func:`performance_by_bin` output."""
    for r in results:
        if r.layer == layer and r.direction == direction:
            return r
    raise KeyError(f"no panel for layer={layer!r} direction={direction!r}")
