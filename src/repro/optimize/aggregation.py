"""Request-aggregation advisor (Recommendations 2 and 6).

The paper: small requests dominate HPC I/O at both file and process
levels, and aggregation (collective MPI-IO buffering, I/O adaptation)
has been available "for quite some time" yet goes unused — so middleware
should aggregate *seamlessly*. This advisor quantifies the opportunity:
for every file whose mean request size falls below a threshold, it
re-prices the transfer at an aggregated request size with the same
parallelism and reports the predicted speedup, worst offenders first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.iosim.perfmodel import COLLECTIVE_BUFFER, PerfModel, TransferSpec
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.store.recordstore import RecordStore
from repro.units import KiB


@dataclass(frozen=True)
class AggregationOpportunity:
    """One file population's predicted gain from request aggregation."""

    layer: str
    interface: str
    direction: str
    nfiles: int
    total_bytes: int
    mean_request: float
    #: Predicted mean per-file time, current vs aggregated (seconds).
    current_time: float
    aggregated_time: float

    @property
    def speedup(self) -> float:
        return (
            self.current_time / self.aggregated_time
            if self.aggregated_time > 0
            else float("inf")
        )

    @property
    def saved_seconds(self) -> float:
        """Aggregate I/O seconds saved across the population."""
        return (self.current_time - self.aggregated_time) * self.nfiles


def find_aggregation_opportunities(
    store: RecordStore,
    machine: Machine,
    *,
    perf: PerfModel | None = None,
    small_request_threshold: int = 64 * KiB,
    aggregated_request: int = COLLECTIVE_BUFFER,
    min_files: int = 20,
) -> list[AggregationOpportunity]:
    """Rank (layer, interface, direction) populations by predicted gain.

    Only POSIX and STDIO populations are considered (MPI-IO collective
    traffic is already aggregated); deterministic pricing (no noise) so
    the ranking is stable. Columns are read through the store's
    :class:`~repro.analysis.context.AnalysisContext`, so the exhibits'
    cached (layer, interface) index arrays and byte gathers are reused.
    """
    perf = perf or PerfModel(deterministic=True)
    ctx = store.analysis()
    rng = np.random.default_rng(0)
    out: list[AggregationOpportunity] = []
    for layer_key, layer_code in ctx.layer_items():
        layer = machine.layers[layer_key]
        for iface in (IOInterface.POSIX, IOInterface.STDIO):
            keys = (("layer", layer_code), ("interface", int(iface)))
            for direction, bytes_col, ops_col in (
                ("read", "bytes_read", "reads"),
                ("write", "bytes_written", "writes"),
            ):
                sel_bytes = ctx.gather(bytes_col, *keys)
                sel_ops = ctx.gather(ops_col, *keys)
                nbytes = sel_bytes.astype(np.float64)
                ops = np.maximum(sel_ops.astype(np.float64), 1.0)
                mean_req = np.where(nbytes > 0, nbytes / ops, 0.0)
                mask = (nbytes > 0) & (mean_req < small_request_threshold)
                n = int(mask.sum())
                if n < min_files:
                    continue
                rows = ctx.idx(*keys)[mask]
                sub_bytes = sel_bytes[mask]
                sub_ops = sel_ops[mask]
                spec_now = TransferSpec(
                    nbytes=sub_bytes.astype(np.float64),
                    request_size=np.maximum(
                        sub_bytes / np.maximum(sub_ops, 1), 1.0
                    ),
                    nprocs=ctx.column("nprocs")[rows].astype(np.float64),
                    file_parallelism=np.ones(n),
                    shared=ctx.mask("shared")[rows],
                )
                spec_agg = TransferSpec(
                    nbytes=spec_now.nbytes,
                    request_size=np.minimum(
                        np.maximum(spec_now.nbytes, 1.0),
                        float(aggregated_request),
                    ),
                    nprocs=spec_now.nprocs,
                    file_parallelism=spec_now.file_parallelism,
                    shared=spec_now.shared,
                )
                t_now = perf.transfer_time(layer, iface, direction, spec_now, rng)
                t_agg = perf.transfer_time(layer, iface, direction, spec_agg, rng)
                out.append(
                    AggregationOpportunity(
                        layer=layer_key,
                        interface=iface.label,
                        direction=direction,
                        nfiles=n,
                        total_bytes=int(sub_bytes.sum()),
                        mean_request=float(
                            sub_bytes.sum() / np.maximum(sub_ops.sum(), 1)
                        ),
                        current_time=float(t_now.mean()),
                        aggregated_time=float(t_agg.mean()),
                    )
                )
    out.sort(key=lambda o: -o.saved_seconds)
    return out
