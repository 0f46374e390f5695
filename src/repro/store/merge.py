"""Merging shard-local RecordStores into one global store.

Federation merges member stores, each a :class:`RecordStore` with its
own extension catalog and its own dense ``log_id`` space (a "shard"
below). This module reassembles them deterministically:

* **Catalog union** — domain and extension catalogs are unioned in
  first-seen order across shards (shard order, then catalog order), and
  every code column is remapped through a small lookup table. When the
  shards are contiguous slices of one input, first-seen order equals the
  order a serial pass over the same inputs would have produced.
* **Log-id remap** (``remap_log_ids=True``) — shard ``s``'s log-id space
  is shifted up by the combined width of all earlier shards' spaces (a
  per-shard bijection, collision-free across shards). Ingest numbers a
  store's logs ``0..n-1`` in input order, so for contiguous slices the
  offsets reproduce the global serial enumeration exactly — including
  id gaps left by logs that contributed no file rows.
* **Job rows** — the same physical job may appear in several shards (its
  logs split across shards). Duplicate job ids are merged: static
  attributes must agree, ``used_bb`` is OR-ed, and ``nlogs`` is summed
  (each shard saw a subset of the job's logs). Alternatively
  ``remap_job_ids=True`` treats shards as independent populations and
  renumbers jobs densely instead of merging.

The merged store is a fresh object at generation 0 with its own (empty)
analysis cache; the shard stores are never mutated.

Rows move through the store's row kernel
(:func:`~repro.store.schema.concat_rows`,
:func:`~repro.store.schema.take_rows`): one byte copy of every member's
rows, then the column rewrites above on the copy. A fleet merge of
three 164k-row members costs about twice the bare copy (DESIGN.md §14).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import MergeSchemaError, StoreError
from repro.obs.tracer import trace_span
from repro.store.recordstore import RecordStore
from repro.store.schema import concat_rows, take_rows

#: Job columns that must be identical across duplicate job rows.
_JOB_STATIC = ("user_id", "nnodes", "nprocs", "domain", "runtime", "start_time")


def _union_catalog(
    catalogs: Sequence[Sequence[str]],
) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Union catalogs in first-seen order; return per-shard code LUTs.

    Each LUT is indexed by ``old_code + 1`` so the sentinel code −1
    (unknown domain / no extension) maps to itself.
    """
    union: list[str] = []
    index: dict[str, int] = {}
    luts: list[np.ndarray] = []
    for cat in catalogs:
        lut = np.empty(len(cat) + 1, dtype=np.int16)
        lut[0] = -1
        for i, name in enumerate(cat):
            if name not in index:
                index[name] = len(union)
                union.append(name)
            lut[i + 1] = index[name]
        luts.append(lut)
    return tuple(union), luts


def _is_identity(lut: np.ndarray) -> bool:
    return bool((lut == np.arange(-1, len(lut) - 1, dtype=np.int16)).all())


def _remap_log_ids(files: np.ndarray, jobs: np.ndarray, base: int) -> int:
    """Shift this shard's log-id space up by ``base``; return its width.

    Ingest numbers a store's logs ``0..n-1`` in path order (empty logs
    included, via the job table's ``nlogs``), so an offset — not a dense
    re-rank — reproduces the serial enumeration, preserving the id gaps
    of logs that contributed no file rows.
    """
    width = int(jobs["nlogs"].sum()) if len(jobs) else 0
    if len(files):
        lo = int(files["log_id"].min())
        if lo < 0:
            raise StoreError(f"cannot remap negative log id {lo}")
        width = max(width, int(files["log_id"].max()) + 1)
        files["log_id"] += base
    return width


def _merge_job_tables(jobs_parts: list[np.ndarray]) -> np.ndarray:
    """Merge job rows across shards, deduplicating by ``job_id``."""
    allj = concat_rows(jobs_parts)
    if not len(allj):
        return allj
    sj = take_rows(allj, np.argsort(allj["job_id"], kind="stable"))
    _, first, counts = np.unique(sj["job_id"], return_index=True, return_counts=True)
    merged = take_rows(sj, first)
    for name in _JOB_STATIC:
        if not (sj[name] == np.repeat(merged[name], counts)).all():
            raise StoreError(
                f"duplicate job rows disagree on {name!r}; shards do not "
                "describe the same population (use remap_job_ids=True to "
                "merge independent populations)"
            )
    merged["used_bb"] = np.maximum.reduceat(sj["used_bb"], first)
    merged["nlogs"] = np.add.reduceat(sj["nlogs"], first)
    return merged


def merge_stores(
    stores: Iterable[RecordStore],
    *,
    remap_log_ids: bool = False,
    remap_job_ids: bool = False,
) -> RecordStore:
    """Merge shard-local stores into one store (see module docstring)."""
    stores = list(stores)
    if not stores:
        raise StoreError("cannot merge zero stores")
    with trace_span("store.merge", "store") as sp:
        if sp is not None:
            sp.add(shards=len(stores), rows=sum(len(s.files) for s in stores))
        return _merge_stores(
            stores,
            remap_log_ids=remap_log_ids,
            remap_job_ids=remap_job_ids,
        )


def _merge_stores(
    stores: list[RecordStore],
    *,
    remap_log_ids: bool,
    remap_job_ids: bool,
) -> RecordStore:
    first = stores[0]
    for s in stores[1:]:
        if s.schema_version != first.schema_version:
            # A typed refusal, not a KeyError deep in column remapping:
            # stores written at different schema versions may disagree
            # about what the columns *mean*.
            raise MergeSchemaError(
                f"cannot merge stores with schema versions "
                f"{first.schema_version} and {s.schema_version}; re-save "
                "the older store with this library to upgrade it"
            )
        if s.platform != first.platform:
            raise StoreError(
                f"cannot merge platforms {first.platform!r} and {s.platform!r}"
            )
        if s.scale != first.scale:
            raise StoreError(
                f"cannot merge stores at scales {first.scale} and {s.scale}"
            )

    domains, dom_luts = _union_catalog([s.domains for s in stores])
    extensions, ext_luts = _union_catalog([s.extensions for s in stores])

    files = concat_rows([s.files for s in stores])
    jobs_parts: list[np.ndarray] = []
    offsets = np.cumsum([0] + [len(s.files) for s in stores])
    log_base = 0
    job_base = 1
    for i, s in enumerate(stores):
        part = files[offsets[i] : offsets[i + 1]]
        if not _is_identity(dom_luts[i]):
            part["domain"] = dom_luts[i][part["domain"].astype(np.int32) + 1]
        if not _is_identity(ext_luts[i]):
            part["ext"] = ext_luts[i][part["ext"].astype(np.int32) + 1]
        if remap_log_ids:
            log_base += _remap_log_ids(part, s.jobs, log_base)
        # Copy a shard's job table only when it must be rewritten; the
        # read-only case concatenates below anyway.
        jobs = s.jobs
        remap_domain = len(jobs) and not _is_identity(dom_luts[i])
        if remap_job_ids or remap_domain:
            jobs = concat_rows([jobs])
        if remap_domain:
            jobs["domain"] = dom_luts[i][jobs["domain"].astype(np.int32) + 1]
        if remap_job_ids:
            uniq, inverse = np.unique(jobs["job_id"], return_inverse=True)
            jobs["job_id"] = job_base + inverse
            if len(part):
                part["job_id"] = job_base + np.searchsorted(
                    uniq, part["job_id"]
                )
            job_base += len(uniq)
        jobs_parts.append(jobs)

    if remap_job_ids:
        merged_jobs = concat_rows(jobs_parts)
    else:
        merged_jobs = _merge_job_tables(jobs_parts)
    return RecordStore(
        first.platform,
        files,
        merged_jobs,
        domains=domains,
        extensions=extensions,
        scale=first.scale,
        schema_version=first.schema_version,
    )


def canonicalize(store: RecordStore) -> RecordStore:
    """A new store with rows in canonical order.

    The canonical file order sorts by (job, log, record id, interface,
    layer, rank) — enough to make any two row-equal stores byte-equal
    regardless of the order their shards were generated or merged in.
    The differential suite compares stores in this order.
    """
    f = store.files
    order = np.lexsort(
        (f["rank"], f["layer"], f["interface"], f["record_id"], f["log_id"], f["job_id"])
    )
    jorder = np.argsort(store.jobs["job_id"], kind="stable")
    return RecordStore(
        store.platform,
        take_rows(f, order),
        take_rows(store.jobs, jorder),
        domains=store.domains,
        extensions=store.extensions,
        scale=store.scale,
        schema_version=store.schema_version,
    )
