"""Figures 3 and 9: CDFs of per-file data-transfer size.

Figure 3 groups files by layer and direction; Figure 9 splits Summit's
files by I/O interface. Following §3.1, a file's transfer size for a
direction is its total bytes moved in that direction; files with zero
bytes in a direction do not enter that direction's CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import cdf_at
from repro.analysis.context import AnalysisContext
from repro.errors import AnalysisError
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.units import GB, MB, TB

#: Figure 3's x-axis thresholds.
FIG3_THRESHOLDS = np.array([1 * GB, 10 * GB, 100 * GB, 1 * TB], dtype=np.float64)
FIG3_LABELS = ("1GB", "10GB", "100GB", "1TB")

#: Figure 9's x-axis thresholds.
FIG9_THRESHOLDS = np.array([100 * MB, 1 * GB, 10 * GB], dtype=np.float64)
FIG9_LABELS = ("100MB", "1GB", "10GB")


@dataclass(frozen=True)
class TransferCdf:
    """One CDF curve: percentage of files at or below each threshold."""

    platform: str
    layer: str
    direction: str
    interface: str  # "" = POSIX+STDIO combined (Figure 3)
    nfiles: int
    thresholds: tuple[float, ...]
    labels: tuple[str, ...]
    percent_at: tuple[float, ...]

    def percent_below(self, threshold: float) -> float:
        """Percent of files <= a threshold present in this curve."""
        try:
            idx = self.thresholds.index(threshold)
        except ValueError:
            raise AnalysisError(
                f"threshold {threshold} not on the curve; have {self.thresholds}"
            ) from None
        return self.percent_at[idx]

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                self.layer,
                self.interface or "POSIX+STDIO",
                self.direction,
                str(self.nfiles),
                *[f"{p:.2f}%" for p in self.percent_at],
            ]
        ]


_DIRECTION_COLS = (("read", "bytes_read"), ("write", "bytes_written"))


def transfer_cdfs(
    store: RecordStore,
    *,
    thresholds: np.ndarray = FIG3_THRESHOLDS,
    labels: tuple[str, ...] = FIG3_LABELS,
) -> list[TransferCdf]:
    """Figure 3: per (layer, direction) CDFs over POSIX+STDIO files."""
    ctx = store.analysis()
    key = ("result", "transfer_cdfs", tuple(float(t) for t in thresholds), labels)
    return ctx.cached(key, lambda: _fig3(ctx, thresholds, labels))


def _fig3(ctx: AnalysisContext, thresholds, labels) -> list[TransferCdf]:
    store = ctx.store
    out = []
    for layer, code in ctx.layer_items():
        for direction, col in _DIRECTION_COLS:
            values = ctx.positive(col, "unique", ("layer", code))
            if values.size == 0:
                continue
            out.append(
                TransferCdf(
                    platform=store.platform,
                    layer=layer,
                    direction=direction,
                    interface="",
                    nfiles=int(values.size),
                    thresholds=tuple(float(t) for t in thresholds),
                    labels=labels,
                    percent_at=tuple(cdf_at(values, thresholds)),
                )
            )
    return out


def interface_transfer_cdfs(
    store: RecordStore,
    *,
    thresholds: np.ndarray = FIG9_THRESHOLDS,
    labels: tuple[str, ...] = FIG9_LABELS,
) -> list[TransferCdf]:
    """Figure 9: per (interface, layer, direction) CDFs.

    Here MPI-IO rows are real curves (the figure has an MPI-IO panel);
    POSIX curves exclude the MPI-IO shadows to keep panels disjoint would
    be wrong — Darshan's POSIX module does see that traffic, so shadows
    stay in, matching the instrument's view.
    """
    ctx = store.analysis()
    key = (
        "result",
        "interface_transfer_cdfs",
        tuple(float(t) for t in thresholds),
        labels,
    )
    return ctx.cached(key, lambda: _fig9(ctx, thresholds, labels))


def _fig9(ctx: AnalysisContext, thresholds, labels) -> list[TransferCdf]:
    store = ctx.store
    out = []
    for iface in IOInterface:
        for layer, code in ctx.layer_items():
            for direction, col in _DIRECTION_COLS:
                values = ctx.positive(
                    col, ("interface", int(iface)), ("layer", code)
                )
                if values.size == 0:
                    continue
                out.append(
                    TransferCdf(
                        platform=store.platform,
                        layer=layer,
                        direction=direction,
                        interface=iface.label,
                        nfiles=int(values.size),
                        thresholds=tuple(float(t) for t in thresholds),
                        labels=labels,
                        percent_at=tuple(cdf_at(values, thresholds)),
                    )
                )
    return out
