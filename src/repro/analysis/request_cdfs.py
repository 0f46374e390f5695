"""Figures 4 and 5: CDFs of per-process request sizes over Darshan bins.

Darshan provides request sizes only as per-file histograms (POSIX and
MPI-IO; STDIO has none — §2.2), so the CDF is over *calls*: the per-bin
totals summed over files, cumulated across the ten bins. Figure 5 is the
same analysis restricted to large jobs (> 1,024 processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.cdf import weighted_cdf
from repro.analysis.context import AnalysisContext, register_foldable
from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_CODES


@dataclass(frozen=True)
class RequestCdf:
    """One curve: cumulative % of calls per access-size bin."""

    platform: str
    layer: str
    direction: str
    large_jobs_only: bool
    total_calls: int
    bin_labels: tuple[str, ...]
    cumulative_percent: tuple[float, ...]
    #: Exact per-bin call counts behind the curve. Carried so curves
    #: merge exactly (:func:`merge`): integer tallies add associatively,
    #: and the cumulative percentages are recomputed from the summed
    #: tallies — bit-identical to a cold pass over the union.
    bin_totals: tuple[int, ...]

    def percent_in_bin(self, label: str) -> float:
        """Non-cumulative share of calls in one bin."""
        i = self.bin_labels.index(label)
        prev = self.cumulative_percent[i - 1] if i else 0.0
        return self.cumulative_percent[i] - prev

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                self.layer,
                self.direction,
                "large" if self.large_jobs_only else "all",
                str(self.total_calls),
                *[f"{p:.1f}" for p in self.cumulative_percent],
            ]
        ]


def request_cdfs(
    store: RecordStore,
    *,
    large_jobs_only: bool = False,
) -> list[RequestCdf]:
    """Figure 4 (``large_jobs_only=False``) or Figure 5 (``True``).

    POSIX rows only: the POSIX module's histograms reflect the actual
    file-system requests (including MPI-IO traffic through its shadows),
    and STDIO has no histograms to contribute.
    """
    ctx = store.analysis()
    key = ("result", "request_cdfs", large_jobs_only)
    return ctx.cached(key, lambda: _compute(ctx, large_jobs_only))


def _compute(ctx: AnalysisContext, large_jobs_only: bool) -> list[RequestCdf]:
    store = ctx.store
    out = []
    for layer, code in ctx.layer_items():
        keys = [("interface", int(IOInterface.POSIX)), ("layer", code)]
        if large_jobs_only:
            keys.append("large_jobs")
        idx = ctx.idx(*keys)
        if not len(idx):
            continue
        for direction, col in (("read", "read_hist"), ("write", "write_hist")):
            # Histogram rows are 80 bytes each; the hist_sum primitive
            # reduces them without caching the gathered copy.
            totals = ctx.hist_sum(col, *keys)
            if totals.sum() == 0:
                continue
            out.append(
                RequestCdf(
                    platform=store.platform,
                    layer=layer,
                    direction=direction,
                    large_jobs_only=large_jobs_only,
                    total_calls=int(totals.sum()),
                    bin_labels=ACCESS_SIZE_BINS.labels,
                    cumulative_percent=tuple(weighted_cdf(totals)),
                    bin_totals=tuple(int(t) for t in totals),
                )
            )
    return out


def merge(results: Sequence[list[RequestCdf]]) -> list[RequestCdf]:
    """Figures 4/5 over disjoint row sets: bin tallies add exactly.

    Rebuilds the curve list in ``_compute``'s canonical layer-by-
    direction order with its skip rule: a (layer, direction) curve
    exists iff its summed tallies are nonzero. A part that skipped the
    curve (empty index or all-zero tallies) contributes zero, which is
    exactly its contribution to the union.
    """
    tallies: dict[tuple[str, str], np.ndarray] = {}
    exemplar: dict[tuple[str, str], RequestCdf] = {}
    for curve in (c for r in results for c in r):
        key = (curve.layer, curve.direction)
        totals = np.asarray(curve.bin_totals, dtype=np.int64)
        if key in tallies:
            tallies[key] = tallies[key] + totals
        else:
            tallies[key] = totals
            exemplar[key] = curve
    out = []
    for layer in LAYER_CODES:
        if layer == "other":  # _compute iterates ctx.layer_items()
            continue
        for direction in ("read", "write"):
            totals = tallies.get((layer, direction))
            if totals is None or totals.sum() == 0:
                continue
            seed = exemplar[(layer, direction)]
            out.append(
                RequestCdf(
                    platform=seed.platform,
                    layer=layer,
                    direction=direction,
                    large_jobs_only=seed.large_jobs_only,
                    total_calls=int(totals.sum()),
                    bin_labels=seed.bin_labels,
                    cumulative_percent=tuple(weighted_cdf(totals)),
                    bin_totals=tuple(int(t) for t in totals),
                )
            )
    return out


register_foldable("request_cdfs", _compute, merge)
