"""Reconstructing per-file transfer descriptions from stored columns.

The store keeps what Darshan keeps — bytes, op counts, rank, process
count — not the layout attributes the perf model consumed when the times
were minted (stripe counts, BB allocation width, collective flags). This
module re-derives a :class:`~repro.iosim.perfmodel.TransferSpec` from
the stored columns by mirroring the generator's *rules*
(:meth:`WorkloadGenerator._file_parallelism`), replacing its random
draws with their expected values:

* Lustre tuned striping (40% of >10 GB files at 2^U(1,6) stripes)
  becomes the expected stripe count for every >10 GB file;
* a Cori job's DataWarp allocation width (not stored) is proxied by its
  node count, which the generator's ``bb_capacity`` sampling tracks.

The what-if engine only ever uses these reconstructions in *ratios* —
the same spec feeds the baseline and the scenario model — so the
approximations cancel wherever the scenario leaves a mechanism alone,
and bias only the mechanisms a scenario deliberately changes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.iosim.replay import join_jobs
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.units import GB, MiB

#: Expected Lustre stripe count for a >10 GB Cori file: 60% keep the
#: default single stripe, 40% were tuned to 2^U{1..5} stripes
#: (mean 12.4), mirroring WorkloadGenerator._file_parallelism.
LUSTRE_TUNED_STRIPES = 0.6 * 1.0 + 0.4 * np.mean([2.0, 4.0, 8.0, 16.0, 32.0])

#: Size above which Cori users bother to tune striping (§2.1.2).
LUSTRE_TUNE_THRESHOLD = 10 * GB

#: UnifyFS lamination chunk on Summit's node-local layer.
SCNL_SEGMENT = 128 * MiB

#: DataWarp substripe granularity on Cori's burst buffer.
CBB_SUBSTRIPE = 1024 * MiB

#: The file-table fields :func:`build_spec` reads.
SPEC_FIELDS = (
    "bytes_read", "bytes_written", "reads", "writes",
    "rank", "interface", "nprocs",
)


def layout_parallelism(
    platform: str,
    layer_code: int,
    machine: Machine,
    sizes: np.ndarray,
    nnodes: np.ndarray,
    *,
    factor: float = 1.0,
) -> np.ndarray:
    """Reconstructed file-layout parallelism for rows on one layer.

    ``factor`` rescales the layout ("double the stripe count") before
    the physical ceilings (server pool, allocation width) are applied.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if layer_code == LAYER_PFS:
        if platform == "summit":
            block = float(machine.pfs.params.get("block_size", 16 * MiB))
            par = np.ceil(sizes / block)
        else:
            par = np.where(
                sizes > LUSTRE_TUNE_THRESHOLD, LUSTRE_TUNED_STRIPES, 1.0
            )
        return np.clip(par * factor, 1.0, machine.pfs.server_count)
    if layer_code == LAYER_INSYSTEM:
        if platform == "summit":
            segments = np.maximum(np.ceil(sizes / SCNL_SEGMENT), 1.0)
            width = nnodes
        else:
            segments = np.maximum(np.ceil(sizes / CBB_SUBSTRIPE), 1.0)
            # Allocation width is not stored; the job's node count is
            # the generator's own scale proxy for it.
            width = nnodes
        par = np.minimum(np.maximum(width, 1.0), segments)
        return np.clip(
            par * factor, 1.0, machine.in_system.server_count
        )
    # "other" layers carry no layout model; a single stream.
    return np.full(len(sizes), max(factor, 1.0))


def nnodes_by_row(job_ids: np.ndarray, jobs: np.ndarray) -> np.ndarray:
    """Each file row's job node count, joined from the job table.

    ``job_ids`` is the file table's ``job_id`` column. The join is
    :func:`~repro.iosim.replay.join_jobs`, the facility replay's, so a
    job id listed twice takes its last row's node count. Rows whose job
    id is absent from the table (hand-built stores) default to one node.
    """
    out = np.ones(len(job_ids), dtype=np.float64)
    if not len(jobs) or not len(job_ids):
        return out
    pos, found = join_jobs(job_ids, jobs)
    out[found] = jobs["nnodes"][pos[found]].astype(np.float64)
    return out


def build_spec(
    rows: Mapping[str, np.ndarray],
    nnodes: np.ndarray,
    parallelism: np.ndarray,
    direction: str,
):
    """A :class:`TransferSpec` for one direction over selected rows.

    ``rows`` maps each field the spec reads (``SPEC_FIELDS``) to its
    values at the selected rows.

    The collective flag is not stored; shared MPI-IO files are treated
    as collective (the generator's MPI-IO groups are), which cancels in
    base/scenario ratios either way.
    """
    from repro.iosim.perfmodel import TransferSpec

    bytes_col = "bytes_read" if direction == "read" else "bytes_written"
    ops_col = "reads" if direction == "read" else "writes"
    nbytes = rows[bytes_col].astype(np.float64)
    ops = np.maximum(rows[ops_col].astype(np.float64), 1.0)
    shared = rows["rank"] == -1
    collective = shared & (rows["interface"] == int(IOInterface.MPIIO))
    return TransferSpec(
        nbytes=nbytes,
        request_size=np.maximum(nbytes / ops, 1.0),
        nprocs=rows["nprocs"].astype(np.float64),
        file_parallelism=np.asarray(parallelism, dtype=np.float64),
        shared=shared,
        collective=collective,
        nnodes=np.asarray(nnodes, dtype=np.float64),
    )
