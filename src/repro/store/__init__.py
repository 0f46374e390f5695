"""Columnar record store.

The study's analyses run over millions of per-file records; per-object
Python traversal would dominate runtime. This subpackage provides a NumPy
structured-array store (:mod:`recordstore`) with the file- and job-level
schemas (:mod:`schema`), ingestion from :class:`~repro.darshan.log.DarshanLog`
objects (:mod:`ingest`), and an ``.npz`` round trip (:mod:`io`).

The generator's vectorized path emits stores directly; :mod:`ingest`
proves the object path and the columnar path agree (see the integration
tests).
"""

from repro.store.schema import (
    FILE_DTYPE,
    JOB_DTYPE,
    LAYER_CODES,
    LAYER_INSYSTEM,
    LAYER_OTHER,
    LAYER_PFS,
    OPCLASS_NAMES,
)
from repro.store.recordstore import RecordStore
from repro.store.ingest import ingest_logs
from repro.store.io import load_store, save_store

__all__ = [
    "FILE_DTYPE",
    "JOB_DTYPE",
    "LAYER_CODES",
    "LAYER_PFS",
    "LAYER_INSYSTEM",
    "LAYER_OTHER",
    "OPCLASS_NAMES",
    "RecordStore",
    "ingest_logs",
    "load_store",
    "save_store",
]
