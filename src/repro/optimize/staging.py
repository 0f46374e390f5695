"""Staging advisor (Recommendation 3).

The paper finds 95.7% (Summit) / 90.1% (Cori) of PFS files are read-only
or write-only — directly stageable through the fast layer — yet the
in-system layers sit underused. This advisor takes a store, finds the
stageable PFS traffic, and compares end-to-end time for the *current*
placement (direct PFS I/O inside the job) against a *staged* plan (fast
in-system I/O inside the job + scheduler-side movement outside it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.iosim.perfmodel import PerfModel, TransferSpec
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_PFS,
    OPCLASS_READ_ONLY,
    OPCLASS_WRITE_ONLY,
)
from repro.units import MiB


@dataclass(frozen=True)
class StagingAssessment:
    """Predicted effect of staging a store's stageable PFS traffic."""

    platform: str
    #: Fraction of PFS files that are RO or WO (the paper's statistic).
    stageable_file_fraction: float
    stageable_bytes: int
    #: Seconds of in-job I/O for the stageable population, current vs staged.
    direct_seconds: float
    staged_seconds: float
    #: Scheduler-side movement seconds (outside the job window).
    movement_seconds: float

    @property
    def in_job_speedup(self) -> float:
        return (
            self.direct_seconds / self.staged_seconds
            if self.staged_seconds > 0
            else float("inf")
        )

    @property
    def worthwhile(self) -> bool:
        """Staging pays when in-job savings exceed half the movement cost
        (movement overlaps with queue wait in practice)."""
        saved = self.direct_seconds - self.staged_seconds
        return saved > 0.5 * self.movement_seconds


def assess_staging(
    store: RecordStore,
    machine: Machine,
    *,
    perf: PerfModel | None = None,
    sample: int | None = 200_000,
) -> StagingAssessment:
    """Price the Recommendation-3 opportunity for a platform's store.

    ``sample`` caps the priced population for speed (deterministic head
    sample: the first stageable rows in row order; times scale linearly
    in population). Columns are read through the store's
    :class:`~repro.analysis.context.AnalysisContext`.
    """
    perf = perf or PerfModel(deterministic=True)
    ctx = store.analysis()
    rng = np.random.default_rng(0)
    pfs = (("layer", LAYER_PFS), "unique")
    pfs_rows = ctx.idx(*pfs)
    stageable = np.isin(
        ctx.opclass()[pfs_rows], (OPCLASS_READ_ONLY, OPCLASS_WRITE_ONLY)
    )
    frac = float(stageable.mean()) if len(stageable) else 0.0
    head = np.flatnonzero(stageable)[:sample]
    rows = pfs_rows[head]

    pfs_layer = machine.pfs
    fast_layer = machine.in_system
    direct = staged = 0.0
    moved_bytes = 0
    for direction, bytes_col, ops_col in (
        ("read", "bytes_read", "reads"),
        ("write", "bytes_written", "writes"),
    ):
        head_bytes = ctx.gather(bytes_col, *pfs)[head]
        active = head_bytes > 0
        if not active.any():
            continue
        sub = rows[active]
        nb = head_bytes[active].astype(np.float64)
        req = np.maximum(nb / np.maximum(ctx.column(ops_col)[sub], 1), 1.0)
        shared = ctx.mask("shared")[sub]
        nprocs = ctx.column("nprocs")[sub].astype(np.float64)
        spec_pfs = TransferSpec(
            nbytes=nb, request_size=req, nprocs=nprocs,
            file_parallelism=np.ones(len(sub)), shared=shared,
        )
        spec_fast = TransferSpec(
            nbytes=nb, request_size=req, nprocs=nprocs,
            file_parallelism=np.minimum(
                np.maximum(nb / (128 * MiB), 1.0), fast_layer.server_count
            ),
            shared=shared,
        )
        iface = IOInterface.POSIX
        direct += float(
            perf.transfer_time(pfs_layer, iface, direction, spec_pfs, rng).sum()
        )
        staged += float(
            perf.transfer_time(fast_layer, iface, direction, spec_fast, rng).sum()
        )
        moved_bytes += int(nb.sum())

    # Movement runs at bulk PFS streaming rates, both directions summed.
    movement = 0.0
    if moved_bytes:
        bulk = TransferSpec(
            nbytes=np.array([moved_bytes], dtype=np.float64),
            request_size=np.array([8 * MiB], dtype=np.float64),
            nprocs=np.array([1.0]),
            file_parallelism=np.array([float(pfs_layer.server_count)]),
            shared=np.array([True]),
        )
        movement = float(
            perf.transfer_time(pfs_layer, IOInterface.POSIX, "read", bulk, rng)[0]
        )
    return StagingAssessment(
        platform=store.platform,
        stageable_file_fraction=frac,
        stageable_bytes=moved_bytes,
        direct_seconds=direct,
        staged_seconds=staged,
        movement_seconds=movement,
    )
