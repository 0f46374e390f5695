"""Structured dtypes and categorical codes for the record store.

One **file row** per (Darshan log, file, interface) — the paper's unit of
analysis ("we consider a file as a unique file if it can be uniquely
identified by the combination of its path and name in a single Darshan
log", §3.1). One **job row** per batch job.

Categorical columns are small integer codes; the mapping to names lives in
the store's metadata (for domains) or in this module (layers).

Whole rows move through one kernel (:func:`concat_rows`,
:func:`take_rows` and the :func:`raw_rows` view they share): numpy
copies a structured dtype field by field, at 2–4× the cost of moving
the same records as opaque bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.errors import StoreError

#: Version of the store schema (tables + meta blob). Lives here rather
#: than :mod:`repro.store.io` so :class:`~repro.store.recordstore.RecordStore`
#: can stamp in-memory stores without importing the persistence layer;
#: ``io`` re-exports it. Bump when meta gains/changes required keys.
SCHEMA_VERSION = 1

#: Storage-layer codes.
LAYER_PFS = 0
LAYER_INSYSTEM = 1
LAYER_OTHER = 255

LAYER_CODES = {"pfs": LAYER_PFS, "insystem": LAYER_INSYSTEM, "other": LAYER_OTHER}
LAYER_NAMES = {v: k for k, v in LAYER_CODES.items()}

#: Read-only / read-write / write-only classification (Figures 6 and 8).
OPCLASS_READ_ONLY = 0
OPCLASS_READ_WRITE = 1
OPCLASS_WRITE_ONLY = 2
OPCLASS_NAMES = {
    OPCLASS_READ_ONLY: "read-only",
    OPCLASS_READ_WRITE: "read-write",
    OPCLASS_WRITE_ONLY: "write-only",
}

_NBINS = ACCESS_SIZE_BINS.nbins

#: Per-file record row.
FILE_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("log_id", np.int64),
        ("user_id", np.int64),
        ("record_id", np.uint64),
        ("layer", np.uint8),
        ("interface", np.uint8),     # IOInterface value
        ("rank", np.int32),          # -1 = shared (all ranks)
        ("nprocs", np.int32),        # processes in the job
        ("domain", np.int16),        # index into store.domains; -1 unknown
        ("ext", np.int16),           # index into store.extensions; -1 none
        ("bytes_read", np.int64),
        ("bytes_written", np.int64),
        ("read_time", np.float64),   # seconds
        ("write_time", np.float64),
        ("meta_time", np.float64),
        ("reads", np.int64),         # op counts
        ("writes", np.int64),
        ("read_hist", np.int64, (_NBINS,)),
        ("write_hist", np.int64, (_NBINS,)),
    ]
)

#: Per-job row.
JOB_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("user_id", np.int64),
        ("nnodes", np.int32),
        ("nprocs", np.int32),
        ("domain", np.int16),
        ("runtime", np.float64),     # seconds
        ("start_time", np.float64),  # seconds from trace origin
        ("nlogs", np.int32),         # Darshan logs produced
        ("used_bb", np.uint8),       # touched the in-system layer?
    ]
)


def raw_rows(table: np.ndarray) -> np.ndarray:
    """A view of ``table``'s rows as ``np.void`` records of the same size.

    Reading or writing through it moves each row as one block of bytes.
    Only rows of one dtype may meet through it: where numpy would
    convert rows of another dtype field by field, a byte copy scrambles
    them, so :func:`concat_rows` refuses a mismatch and a caller that
    writes through the view checks the dtype first.
    """
    return table.view(np.dtype((np.void, table.dtype.itemsize)))


def concat_rows(tables: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(tables)``, moved as bytes; one table gives a copy.

    Every table must have the first one's dtype (a :class:`StoreError`
    names both otherwise).
    """
    dtype = tables[0].dtype
    for table in tables[1:]:
        if table.dtype != dtype:
            raise StoreError(
                f"cannot concatenate rows of dtype {table.dtype} onto "
                f"rows of dtype {dtype}"
            )
    return np.concatenate([raw_rows(t) for t in tables]).view(dtype)


def take_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` for an integer or boolean index array, moved as bytes."""
    return raw_rows(table)[index].view(table.dtype)


def empty_files(n: int = 0) -> np.ndarray:
    """Allocate a file table with ``domain``/``ext`` pre-set to 'unknown'."""
    arr = np.zeros(n, dtype=FILE_DTYPE)
    if n:
        arr["domain"] = -1
        arr["ext"] = -1
        arr["rank"] = -1
    return arr


def empty_jobs(n: int = 0) -> np.ndarray:
    arr = np.zeros(n, dtype=JOB_DTYPE)
    if n:
        arr["domain"] = -1
    return arr
