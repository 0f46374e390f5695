"""Ingesting DarshanLog objects into a RecordStore.

This is the slow-but-faithful path: the same transformation the study's
tooling performs on real ``.darshan`` files. The workload generator's
vectorized path emits equivalent rows directly; the integration tests
assert the two paths agree on a shared population.

Layer resolution follows §3.1's accounting: a file accessed through
MPI-IO contributes its POSIX record's bytes (MPI-IO sits on POSIX), so
MPI-IO rows are kept for interface-usage analyses but flagged via the
``interface`` column, and volume analyses select POSIX+STDIO rows only.

Rows are accumulated **per log into NumPy column chunks** (one small
array per column per log, concatenated once at the end) rather than a
Python list of per-record tuples: the tuple path churned one ~260-byte
structured assignment per record and made facility-scale ingest memory
behaviour quadratic-ish in practice.

:func:`ingest_log_paths` is the file-level entry point; with ``jobs > 1``
it shards the path list contiguously over a process pool, each worker
ingesting a shard-local store, and merges them with stable log-id and
extension-catalog remapping (:mod:`repro.store.merge`) — the result is
row-identical to a serial ingest of the same paths.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.darshan.constants import ModuleId
from repro.darshan.log import DarshanLog
from repro.errors import LogFormatError
from repro.obs.tracer import trace_span
from repro.platforms.machine import MountTable
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_CODES, LAYER_OTHER, empty_files, empty_jobs

#: Scalar file-table columns in ingest fill order (histograms handled
#: separately: they are per-record arrays, stacked per log).
_SCALAR_COLS = (
    "job_id", "log_id", "user_id", "record_id", "layer", "interface",
    "rank", "nprocs", "domain", "ext", "bytes_read", "bytes_written",
    "read_time", "write_time", "meta_time", "reads", "writes",
)


def _extension_of(path: str) -> str:
    name = path.rsplit("/", 1)[-1]
    if "." not in name[1:]:
        return ""
    return name.rsplit(".", 1)[-1].lower()


def ingest_logs(
    logs: Iterable[DarshanLog],
    platform: str,
    mounts: MountTable,
    *,
    domains: Sequence[str] = (),
    extensions: Sequence[str] = (),
    scale: float = 1.0,
) -> RecordStore:
    """Build a RecordStore from parsed logs.

    ``domains`` is the science-domain catalog; logs whose job record names
    a domain outside the catalog get code −1 (like Cori's jobs without
    NEWT project info, §3.3.2). ``extensions`` pre-seeds the extension
    catalog (codes 0..n−1 in the given order, unseen extensions appended
    first-seen after it) so an ingested store can share codes with a
    generated or spec-compiled one.
    """
    with trace_span("ingest.logs", "ingest") as sp:
        store = _ingest_logs(
            logs, platform, mounts,
            domains=domains, extensions=extensions, scale=scale,
        )
        if sp is not None:
            sp.add(platform=platform, rows=len(store.files), jobs=len(store.jobs))
        return store


def _ingest_logs(
    logs: Iterable[DarshanLog],
    platform: str,
    mounts: MountTable,
    *,
    domains: Sequence[str] = (),
    extensions: Sequence[str] = (),
    scale: float = 1.0,
) -> RecordStore:
    domains = tuple(domains)
    domain_code = {d: i for i, d in enumerate(domains)}

    chunks: dict[str, list[np.ndarray]] = {c: [] for c in _SCALAR_COLS}
    hist_chunks: dict[str, list[np.ndarray]] = {"read_hist": [], "write_hist": []}
    nrows = 0
    job_rows: dict[int, tuple] = {}
    extensions = {e: i for i, e in enumerate(extensions)}
    log_counts: dict[int, int] = {}

    for log_id, log in enumerate(logs):
        job = log.job
        dcode = domain_code.get(job.domain, -1)
        log_counts[job.job_id] = log_counts.get(job.job_id, 0) + 1
        names = log.name_records()
        touched_bb = False
        cols: dict[str, list] = {c: [] for c in _SCALAR_COLS}
        hists: dict[str, list[np.ndarray]] = {"read_hist": [], "write_hist": []}
        for module in (ModuleId.POSIX, ModuleId.MPIIO, ModuleId.STDIO):
            for rec in log.records(module):
                nr = names[rec.record_id]
                layer = mounts.resolve(nr.path)
                layer_code = (
                    LAYER_CODES.get(layer.key, LAYER_OTHER)
                    if layer is not None else LAYER_OTHER
                )
                if layer is not None and layer.key == "insystem":
                    touched_bb = True
                ext = _extension_of(nr.path)
                ext_code = -1
                if ext:
                    ext_code = extensions.setdefault(ext, len(extensions))
                cols["job_id"].append(job.job_id)
                cols["log_id"].append(log_id)
                cols["user_id"].append(job.user_id)
                cols["record_id"].append(rec.record_id)
                cols["layer"].append(layer_code)
                cols["interface"].append(int(module))
                cols["rank"].append(rec.rank)
                cols["nprocs"].append(job.nprocs)
                cols["domain"].append(dcode)
                cols["ext"].append(ext_code)
                cols["bytes_read"].append(rec.bytes_read)
                cols["bytes_written"].append(rec.bytes_written)
                cols["read_time"].append(rec.read_time)
                cols["write_time"].append(rec.write_time)
                cols["meta_time"].append(float(rec.get("F_META_TIME")))
                cols["reads"].append(_op_count(rec, "read"))
                cols["writes"].append(_op_count(rec, "write"))
                hists["read_hist"].append(_hist(rec, "READ"))
                hists["write_hist"].append(_hist(rec, "WRITE"))
        if cols["job_id"]:
            nrows += len(cols["job_id"])
            for c in _SCALAR_COLS:
                chunks[c].append(np.asarray(cols[c]))
            for c in ("read_hist", "write_hist"):
                hist_chunks[c].append(np.stack(hists[c]))
        prev = job_rows.get(job.job_id)
        job_rows[job.job_id] = (
            job.job_id, job.user_id,
            int(job.metadata.get("nnodes", "1")), job.nprocs, dcode,
            job.runtime, job.start_time,
            log_counts[job.job_id],
            1 if (touched_bb or (prev is not None and prev[8])) else 0,
        )

    files = empty_files(nrows)
    if nrows:
        for c in _SCALAR_COLS:
            files[c] = np.concatenate(chunks[c])
        for c in ("read_hist", "write_hist"):
            files[c] = np.concatenate(hist_chunks[c])
    jobs = empty_jobs(len(job_rows))
    for i, row in enumerate(job_rows.values()):
        jobs[i] = row
    ext_list = sorted(extensions, key=extensions.get)
    return RecordStore(
        platform, files, jobs,
        domains=domains, extensions=ext_list, scale=scale,
    )


def _read_one(path: str) -> DarshanLog:
    """Parse one log file, tagging format errors with the failing path."""
    import os

    from repro.darshan.format import read_log

    try:
        return read_log(os.fspath(path))
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from exc


def _ingest_shard(payload) -> RecordStore:
    """Pool worker: ingest one contiguous shard of log paths."""
    paths, platform, mounts, domains, extensions, scale = payload
    with trace_span("ingest.shard", "ingest") as sp:
        if sp is not None:
            sp.add(paths=len(paths))
        return ingest_logs(
            (_read_one(p) for p in paths), platform, mounts,
            domains=domains, extensions=extensions, scale=scale,
        )


def ingest_log_paths(
    paths: Iterable[str],
    platform: str,
    mounts: MountTable,
    *,
    domains: Sequence[str] = (),
    extensions: Sequence[str] = (),
    scale: float = 1.0,
    jobs: int | None = None,
) -> RecordStore:
    """Ingest serialized logs from disk, optionally sharded over a pool.

    Shards are contiguous, file-size-balanced slices of the path list, so
    the merged store is row-identical to a serial ingest in path order
    (same log-id enumeration, same first-seen extension catalog). A
    corrupt log fails the whole ingest with a
    :class:`repro.errors.ShardError` naming the shard and the file.
    """
    import os

    from repro.parallel import (
        SHARDS_PER_WORKER,
        contiguous_shards,
        resolve_jobs,
        run_sharded,
    )
    from repro.store.merge import merge_stores

    paths = [os.fspath(p) for p in paths]
    njobs = resolve_jobs(jobs)
    with trace_span("ingest.paths", "ingest") as sp:
        if sp is not None:
            sp.add(paths=len(paths), jobs=njobs)
        if njobs <= 1 or len(paths) <= 1:
            return ingest_logs(
                (_read_one(p) for p in paths), platform, mounts,
                domains=domains, extensions=extensions, scale=scale,
            )
        costs = [
            max(os.path.getsize(p), 1) if os.path.exists(p) else 1 for p in paths
        ]
        slices = contiguous_shards(costs, njobs * SHARDS_PER_WORKER)
        payloads = [
            (paths[sl], platform, mounts, tuple(domains), tuple(extensions), scale)
            for sl in slices
        ]
        # Shard stores return as plain pickles: parsing dominates ingest,
        # and a shared-memory hand-off measured no faster (DESIGN.md §12).
        shards = run_sharded(_ingest_shard, payloads, jobs=njobs)
        return merge_stores(shards, remap_log_ids=True)


def _op_count(rec, direction: str) -> int:
    """Total read/write operation count across the module's counters."""
    total = 0
    names = (
        ("READS", "INDEP_READS", "COLL_READS", "NB_READS")
        if direction == "read"
        else ("WRITES", "INDEP_WRITES", "COLL_WRITES", "NB_WRITES")
    )
    for name in names:
        try:
            total += int(rec.get(name))
        except KeyError:
            continue
    return total


def _hist(rec, direction: str) -> np.ndarray:
    """Request-size histogram (zeros for STDIO, which lacks one)."""
    from repro.darshan.bins import ACCESS_SIZE_BINS
    from repro.darshan.counters import has_size_histogram

    out = np.zeros(ACCESS_SIZE_BINS.nbins, dtype=np.int64)
    if has_size_histogram(rec.module):
        for i, label in enumerate(ACCESS_SIZE_BINS.labels):
            out[i] = int(rec.get(f"SIZE_{direction}_{label}"))
    return out
