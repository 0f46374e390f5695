"""Table 5: jobs accessing files exclusively on one layer, or both.

The asymmetry between platforms is the finding: DataWarp's scheduler-side
staging makes 14.38% of Cori jobs CBB-exclusive (their PFS traffic happens
outside the Darshan window), while Summit's runtime-side staging
(Spectral/UnifyFS) leaves essentially no SCNL-exclusive jobs (§3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.units import format_count


@dataclass(frozen=True)
class LayerExclusivity:
    platform: str
    scale: float
    insystem_only: int
    both: int
    pfs_only: int

    @property
    def total(self) -> int:
        return self.insystem_only + self.both + self.pfs_only

    def insystem_only_fraction(self) -> float:
        """Cori's headline 14.38%."""
        return self.insystem_only / self.total if self.total else float("nan")

    def to_rows(self) -> list[list[str]]:
        return [
            [
                self.platform,
                format_count(self.insystem_only / self.scale),
                format_count(self.both / self.scale),
                format_count(self.pfs_only / self.scale),
                f"{100 * self.insystem_only_fraction():.2f}%",
            ]
        ]


def layer_exclusivity(store: RecordStore) -> LayerExclusivity:
    """Compute Table 5 for one platform (over jobs with any file record)."""
    ctx = store.analysis()
    return ctx.cached(("result", "layer_exclusivity"), lambda: _compute(ctx))


def _compute(ctx: AnalysisContext) -> LayerExclusivity:
    store = ctx.store
    job_ids = store.jobs["job_id"]
    touches_pfs = np.isin(
        job_ids, np.unique(ctx.gather("job_id", ("layer", LAYER_PFS)))
    )
    touches_ins = np.isin(
        job_ids, np.unique(ctx.gather("job_id", ("layer", LAYER_INSYSTEM)))
    )
    return LayerExclusivity(
        platform=store.platform,
        scale=store.scale,
        insystem_only=int((touches_ins & ~touches_pfs).sum()),
        both=int((touches_ins & touches_pfs).sum()),
        pfs_only=int((touches_pfs & ~touches_ins).sum()),
    )
