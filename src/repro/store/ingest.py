"""Ingesting DarshanLog objects into a RecordStore.

This is the transformation the study's tooling performs on real
``.darshan`` files. The workload generator's vectorized path emits
equivalent rows directly; the integration tests assert the two paths
agree on a shared population.

Layer resolution follows §3.1's accounting: a file accessed through
MPI-IO contributes its POSIX record's bytes (MPI-IO sits on POSIX), so
MPI-IO rows are kept for interface-usage analyses but flagged via the
``interface`` column, and volume analyses select POSIX+STDIO rows only.

Each (log, module) block converts in one step: its records' counters
stack into an int64 and a float64 matrix, and the file-table columns
are slices of those at indices fixed per module by the counter
registries (:data:`_COLUMNS`). Only mount resolution and the extension
code look at records one at a time.

:func:`ingest_log_paths` is the file-level entry point: it reads each
serialized log in path order and ingests them through
:func:`ingest_logs`, naming the file when one fails to parse.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.darshan.constants import DATA_MODULES, ModuleId
from repro.darshan.counters import counter_index, counter_slot, module_counters
from repro.darshan.log import DarshanLog
from repro.darshan.records import FileRecord
from repro.errors import LogFormatError
from repro.obs.tracer import trace_span
from repro.platforms.machine import MountTable
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_CODES,
    LAYER_INSYSTEM,
    LAYER_OTHER,
    concat_rows,
    empty_files,
    empty_jobs,
)

#: Each file-table field's counters. A single name is copied; a tuple
#: of names is summed (op counts) or kept in order (size histograms).
#: Names a module lacks are skipped: only MPI-IO splits its op counts,
#: and STDIO has no ``SIZE_*`` histogram, so its rows keep zeros there.
_FIELD_COUNTERS = {
    "bytes_read": "BYTES_READ",
    "bytes_written": "BYTES_WRITTEN",
    "read_time": "F_READ_TIME",
    "write_time": "F_WRITE_TIME",
    "meta_time": "F_META_TIME",
    "reads": ("READS", "INDEP_READS", "COLL_READS", "NB_READS"),
    "writes": ("WRITES", "INDEP_WRITES", "COLL_WRITES", "NB_WRITES"),
    "read_hist": tuple(f"SIZE_READ_{label}" for label in ACCESS_SIZE_BINS.labels),
    "write_hist": tuple(f"SIZE_WRITE_{label}" for label in ACCESS_SIZE_BINS.labels),
}


def _columns(module: ModuleId) -> dict[str, tuple[bool, int | list[int]]]:
    """Per field: whether it reads the fcounter matrix, and its columns."""
    out = {}
    for field, names in _FIELD_COUNTERS.items():
        if isinstance(names, str):
            out[field] = counter_slot(module, names)
        elif cols := [
            counter_index(module, n) for n in names if n in module_counters(module)
        ]:
            out[field] = (False, cols)
    return out


_COLUMNS = {module: _columns(module) for module in DATA_MODULES}


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


def _module_rows(module: ModuleId, recs: list[FileRecord]) -> np.ndarray:
    """File-table rows of one log's records of one module.

    Fills every column that comes from the records themselves; the
    caller fills the job's columns, ``layer`` and ``ext``.
    """
    n = len(recs)
    counters = np.stack([rec.counters for rec in recs])
    fcounters = np.stack([rec.fcounters for rec in recs])
    rows = empty_files(n)
    rows["record_id"] = np.fromiter((r.record_id for r in recs), np.uint64, n)
    rows["rank"] = np.fromiter((r.rank for r in recs), np.int32, n)
    rows["interface"] = int(module)
    for field, (is_float, cols) in _COLUMNS[module].items():
        value = (fcounters if is_float else counters)[:, cols]
        if value.ndim > rows[field].ndim:  # op counts, one column each
            value = value.sum(axis=1)
        rows[field] = value
    return rows


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
    extensions = {e: i for i, e in enumerate(extensions)}
    blocks: list[np.ndarray] = []
    job_rows: dict[int, tuple] = {}
    log_counts: dict[int, int] = {}

    for log_id, log in enumerate(logs):
        job = log.job
        dcode = domain_code.get(job.domain, -1)
        log_counts[job.job_id] = log_counts.get(job.job_id, 0) + 1
        names = log.name_records()
        touched_bb = False
        for module in DATA_MODULES:
            recs = log.records(module)
            if not recs:
                continue
            rows = _module_rows(module, recs)
            rows["job_id"] = job.job_id
            rows["log_id"] = log_id
            rows["user_id"] = job.user_id
            rows["nprocs"] = job.nprocs
            rows["domain"] = dcode
            # The per-record step: mount resolution and extension codes.
            paths = [names[rec.record_id].path for rec in recs]
            layers = [mounts.resolve(path) for path in paths]
            rows["layer"] = [
                LAYER_OTHER if lay is None else LAYER_CODES.get(lay.key, LAYER_OTHER)
                for lay in layers
            ]
            rows["ext"] = [
                extensions.setdefault(ext, len(extensions)) if ext else -1
                for ext in map(_extension_of, paths)
            ]
            touched_bb = touched_bb or LAYER_INSYSTEM in rows["layer"]
            blocks.append(rows)
        prev = job_rows.get(job.job_id)
        job_rows[job.job_id] = (
            job.job_id, job.user_id,
            int(job.metadata.get("nnodes", "1")), job.nprocs, dcode,
            job.runtime, job.start_time,
            log_counts[job.job_id],
            1 if (touched_bb or (prev is not None and prev[8])) else 0,
        )

    files = concat_rows(blocks) if blocks else empty_files(0)
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


def ingest_log_paths(
    paths: Iterable[str],
    platform: str,
    mounts: MountTable,
    *,
    domains: Sequence[str] = (),
    extensions: Sequence[str] = (),
    scale: float = 1.0,
) -> RecordStore:
    """Ingest serialized logs from disk, in path order.

    Equal to :func:`ingest_logs` over the parsed logs. A corrupt log
    fails the whole ingest with a :class:`repro.errors.LogFormatError`
    naming the file.
    """
    paths = list(paths)
    with trace_span("ingest.paths", "ingest") as sp:
        if sp is not None:
            sp.add(paths=len(paths))
        return ingest_logs(
            (_read_one(p) for p in paths), platform, mounts,
            domains=domains, extensions=extensions, scale=scale,
        )
