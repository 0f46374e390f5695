"""Table 3: file counts and total data-transfer volume per storage layer.

§3.1 accounting: a file accessed via MPI-IO is measured through its POSIX
record (MPI-IO issues POSIX underneath); STDIO files through STDIO. So
both counts and volumes select POSIX + STDIO rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.context import AnalysisContext, register_foldable
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.units import format_count, format_size


@dataclass(frozen=True)
class LayerRow:
    layer: str
    files: int
    bytes_read: int
    bytes_written: int

    def read_write_ratio(self) -> float:
        """Read volume over write volume (>1 = read-dominated)."""
        return self.bytes_read / self.bytes_written if self.bytes_written else float("inf")


@dataclass(frozen=True)
class LayerVolumes:
    platform: str
    scale: float
    insystem: LayerRow
    pfs: LayerRow

    def pfs_over_insystem_files(self) -> float:
        """The paper's 3.63x (Summit) / 28.87x (Cori) file-count ratio."""
        return self.pfs.files / self.insystem.files if self.insystem.files else float("inf")

    def to_rows(self) -> list[list[str]]:
        rows = []
        for row in (self.insystem, self.pfs):
            rows.append(
                [
                    self.platform,
                    row.layer,
                    format_count(row.files / self.scale),
                    format_size(row.bytes_read / self.scale),
                    format_size(row.bytes_written / self.scale),
                    f"{row.read_write_ratio():.2f}",
                ]
            )
        return rows


def layer_volumes(store: RecordStore) -> LayerVolumes:
    """Compute Table 3 for one platform."""
    ctx = store.analysis()
    return ctx.cached(("result", "layer_volumes"), lambda: _compute(ctx))


def _compute(ctx: AnalysisContext) -> LayerVolumes:
    store = ctx.store
    rows = {}
    for name, code in (("insystem", LAYER_INSYSTEM), ("pfs", LAYER_PFS)):
        keys = ("unique", ("layer", code))
        rows[name] = LayerRow(
            layer=name,
            files=len(ctx.idx(*keys)),
            bytes_read=int(ctx.gather("bytes_read", *keys).sum()),
            bytes_written=int(ctx.gather("bytes_written", *keys).sum()),
        )
    return LayerVolumes(
        platform=store.platform,
        scale=store.scale,
        insystem=rows["insystem"],
        pfs=rows["pfs"],
    )


def merge(results: Sequence[LayerVolumes]) -> LayerVolumes:
    """Table 3 over disjoint row sets: counts and int64 sums add."""
    rows = {}
    for name in ("insystem", "pfs"):
        parts = [getattr(r, name) for r in results]
        rows[name] = LayerRow(
            layer=name,
            files=sum(p.files for p in parts),
            bytes_read=sum(p.bytes_read for p in parts),
            bytes_written=sum(p.bytes_written for p in parts),
        )
    return LayerVolumes(
        platform=results[0].platform,
        scale=results[0].scale,
        insystem=rows["insystem"],
        pfs=rows["pfs"],
    )


register_foldable("layer_volumes", _compute, merge)
