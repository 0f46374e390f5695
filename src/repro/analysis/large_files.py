"""Table 4: files with more than 1 TB of data transfer, per layer.

The paper counts read files (read transfer > 1 TB) and write files (write
transfer > 1 TB) separately; the headline shapes are that on Summit all
such files live on the PFS, while on Cori >1 TB *writes* go to the PFS
(91.35%) and >1 TB *reads* come from CBB (87.39%).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import AnalysisContext
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.units import TB, format_count


@dataclass(frozen=True)
class LargeFiles:
    platform: str
    scale: float
    threshold: int
    #: counts at store scale: {layer: (read_files, write_files)}
    counts: dict[str, tuple[int, int]]

    def pfs_write_share(self) -> float:
        """Fraction of >threshold write files on the PFS (Cori: 91.35%)."""
        pfs = self.counts["pfs"][1]
        total = pfs + self.counts["insystem"][1]
        return pfs / total if total else float("nan")

    def insystem_read_share(self) -> float:
        """Fraction of >threshold read files on the in-system layer
        (Cori: 87.39%)."""
        ins = self.counts["insystem"][0]
        total = ins + self.counts["pfs"][0]
        return ins / total if total else float("nan")

    def to_rows(self) -> list[list[str]]:
        rows = []
        for layer in ("insystem", "pfs"):
            r, w = self.counts[layer]
            rows.append(
                [
                    self.platform,
                    layer,
                    format_count(r / self.scale, precision=0),
                    format_count(w / self.scale, precision=0),
                ]
            )
        return rows


def large_files(store: RecordStore, threshold: int = 1 * TB) -> LargeFiles:
    """Compute Table 4 for one platform."""
    ctx = store.analysis()
    key = ("result", "large_files", threshold)
    return ctx.cached(key, lambda: _compute(ctx, threshold))


def _compute(ctx: AnalysisContext, threshold: int) -> LargeFiles:
    store = ctx.store
    counts = {}
    for name, code in (("insystem", LAYER_INSYSTEM), ("pfs", LAYER_PFS)):
        keys = ("unique", ("layer", code))
        counts[name] = (
            int((ctx.gather("bytes_read", *keys) > threshold).sum()),
            int((ctx.gather("bytes_written", *keys) > threshold).sum()),
        )
    return LargeFiles(
        platform=store.platform,
        scale=store.scale,
        threshold=threshold,
        counts=counts,
    )
