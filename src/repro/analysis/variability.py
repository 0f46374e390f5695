"""Performance variability under production load (TOKIO-flavored).

TOKIO (reference [11]) characterizes how the *same* I/O pattern performs
differently across time on production systems. §3.4 of the paper shows
the same phenomenon through box-plot whiskers. This module quantifies it:
per (layer, interface, direction, transfer bin), the dispersion of the
per-file bandwidths — interquartile ratio and p90/p10 span — so the
contention model's production-load signature can be validated and
compared across configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.darshan.bins import TRANSFER_SIZE_BINS, SizeBins
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore


@dataclass(frozen=True)
class VariabilityCell:
    """Dispersion of per-file bandwidth in one (layer, iface, dir, bin)."""

    layer: str
    interface: str
    direction: str
    bin_label: str
    n: int
    median: float
    iqr_ratio: float   # q3 / q1
    p90_over_p10: float

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.layer, self.interface, self.direction, self.bin_label,
                str(self.n), f"{self.median / 1e6:.1f}",
                f"{self.iqr_ratio:.2f}", f"{self.p90_over_p10:.2f}",
            ]
        ]


def bandwidth_variability(
    store: RecordStore,
    *,
    bins: SizeBins = TRANSFER_SIZE_BINS,
    min_samples: int = 30,
) -> list[VariabilityCell]:
    """Dispersion cells for all shared-file populations with enough data."""
    ctx = store.analysis()
    key = ("result", "bandwidth_variability", bins.name, bins.edges, min_samples)
    return ctx.cached(key, lambda: _compute(ctx, bins, min_samples))


def _compute(
    ctx: AnalysisContext, bins: SizeBins, min_samples: int
) -> list[VariabilityCell]:
    out: list[VariabilityCell] = []
    for layer, code in ctx.layer_items():
        for iface in (IOInterface.POSIX, IOInterface.STDIO):
            keys = ("shared", ("layer", code), ("interface", int(iface)))
            for direction, bytes_col, time_col in (
                ("read", "bytes_read", "read_time"),
                ("write", "bytes_written", "write_time"),
            ):
                nbytes = ctx.gather(bytes_col, *keys).astype(np.float64)
                times = ctx.gather(time_col, *keys)
                ok = (nbytes > 0) & (times > 0)
                bw = nbytes[ok] / times[ok]
                bin_idx = bins.index_array(nbytes[ok])
                for b in range(bins.nbins):
                    vals = bw[bin_idx == b]
                    if len(vals) < min_samples:
                        continue
                    q1, med, q3 = np.percentile(vals, [25, 50, 75])
                    p10, p90 = np.percentile(vals, [10, 90])
                    out.append(
                        VariabilityCell(
                            layer=layer,
                            interface=iface.label,
                            direction=direction,
                            bin_label=bins.labels[b],
                            n=int(len(vals)),
                            median=float(med),
                            iqr_ratio=float(q3 / q1) if q1 > 0 else float("inf"),
                            p90_over_p10=float(p90 / p10) if p10 > 0 else float("inf"),
                        )
                    )
    return out


def median_iqr_ratio(cells: list[VariabilityCell]) -> float:
    """Aggregate variability indicator across all populated cells."""
    ratios = [c.iqr_ratio for c in cells if np.isfinite(c.iqr_ratio)]
    return float(np.median(ratios)) if ratios else float("nan")
