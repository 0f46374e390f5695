"""Figures 6 and 8: read-only / read-write / write-only classification.

Figure 6 classifies files using POSIX and STDIO; Figure 8 repeats the
analysis for STDIO-managed files only, where the paper found much higher
relative use of the in-system layers. The result also carries the two
derived statistics the text quotes: the stageable share of PFS files
(RO+WO: 95.7% Summit / 90.1% Cori, Recommendation 3) and the per-class
in-system:PFS usage ratios of the Figure 8 discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.context import AnalysisContext, register_foldable
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_INSYSTEM,
    LAYER_PFS,
    OPCLASS_NAMES,
)
from repro.units import format_count

_CLASS_ORDER = ("read-only", "read-write", "write-only")


@dataclass(frozen=True)
class FileClassification:
    platform: str
    scale: float
    #: "posix+stdio" (Figure 6) or "stdio" (Figure 8).
    interfaces: str
    #: {layer: {opclass: count}} at store scale.
    counts: dict[str, dict[str, int]]

    def stageable_pfs_fraction(self) -> float:
        """RO+WO share of PFS files (the Recommendation 3 statistic)."""
        per = self.counts["pfs"]
        total = sum(per.values())
        if not total:
            return float("nan")
        return (per["read-only"] + per["write-only"]) / total

    def insystem_over_pfs(self, opclass: str) -> float:
        """In-system:PFS count ratio for one class (Figure 8 discussion)."""
        pfs = self.counts["pfs"][opclass]
        ins = self.counts["insystem"][opclass]
        return ins / pfs if pfs else float("inf")

    def insystem_share(self, opclass: str) -> float:
        """In-system share of a class across both layers."""
        pfs = self.counts["pfs"][opclass]
        ins = self.counts["insystem"][opclass]
        total = pfs + ins
        return ins / total if total else float("nan")

    def to_rows(self) -> list[list[str]]:
        rows = []
        for layer in ("insystem", "pfs"):
            per = self.counts[layer]
            rows.append(
                [
                    self.platform,
                    self.interfaces,
                    layer,
                    *[format_count(per[c] / self.scale) for c in _CLASS_ORDER],
                ]
            )
        return rows


def file_classification(
    store: RecordStore,
    *,
    stdio_only: bool = False,
) -> FileClassification:
    """Figure 6 (``stdio_only=False``) or Figure 8 (``True``)."""
    ctx = store.analysis()
    key = ("result", "file_classification", stdio_only)
    return ctx.cached(key, lambda: _compute(ctx, stdio_only))


def _compute(ctx: AnalysisContext, stdio_only: bool) -> FileClassification:
    store = ctx.store
    base = "unique" if not stdio_only else ("interface", int(IOInterface.STDIO))
    opclass = ctx.opclass()
    counts: dict[str, dict[str, int]] = {}
    for layer, code in (("insystem", LAYER_INSYSTEM), ("pfs", LAYER_PFS)):
        idx = ctx.idx(base, ("layer", code))
        per_layer = opclass[idx]
        counts[layer] = {
            name: int(np.sum(per_layer == cls_code))
            for cls_code, name in OPCLASS_NAMES.items()
        }
    return FileClassification(
        platform=store.platform,
        scale=store.scale,
        interfaces="stdio" if stdio_only else "posix+stdio",
        counts=counts,
    )


def merge(results: Sequence[FileClassification]) -> FileClassification:
    """Figures 6/8 over disjoint row sets: per-(layer, class) counts add."""
    first = results[0]
    counts = {
        layer: {
            cls: sum(r.counts[layer][cls] for r in results)
            for cls in first.counts[layer]
        }
        for layer in first.counts
    }
    return FileClassification(
        platform=first.platform,
        scale=first.scale,
        interfaces=first.interfaces,
        counts=counts,
    )


register_foldable("file_classification", _compute, merge)
