"""Zero-copy shard fabric: shared-memory hand-off between processes.

The sharded pipelines (generate, ingest, what-if sweeps) move columnar
NumPy tables between pool workers and the parent. Pickling those tables
across the pool's result pipe costs two full copies plus pipe syscalls
per shard — BENCH_generate.json recorded the sharded pipeline running
*slower* than serial because of exactly that tax. This module replaces
the payload pickle with POSIX shared memory: the producer writes the raw
table bytes into a :class:`multiprocessing.shared_memory.SharedMemory`
segment and ships only a tiny picklable *header* (segment name, dtype
descriptor, shape, byte offset); the consumer maps the segment and
builds array views — no payload bytes ever cross the pipe.

Ownership/lifecycle contract (DESIGN.md §12):

* The **creating worker** copies its arrays in, *unregisters* the
  segment from its own resource tracker (so a worker exiting does not
  tear the segment down under the parent), closes its mapping, and from
  then on never touches it again.
* The **parent** re-registers the segment with *its* resource tracker
  on attach — if the parent dies before unlinking, the tracker reaps
  the segment instead of leaking ``/dev/shm`` entries — and is solely
  responsible for :func:`release` (close + unlink) once the data has
  been reduced.
* A worker that fails mid-export unlinks its own partial segment before
  reporting the error; the parent unlinks every *successful* shard's
  segment before re-raising a :class:`~repro.errors.ShardError`, so one
  bad shard never strands the others' memory.

Every segment created by this process is tracked in a module registry
(:func:`live_segments`) and force-unlinked at interpreter exit as a
last-ditch guard; tests assert the registry drains back to empty.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: /dev/shm name prefix for every fabric segment; tests and operators
#: can spot (and sweep) repro-owned segments by it.
SEGMENT_PREFIX = "repro-fab"

#: Byte alignment of each table inside a multi-table segment. 64 keeps
#: every dtype we ship naturally aligned and cache-line friendly.
_ALIGN = 64

_counter = itertools.count()

#: Names of segments this process created (owner side) and has not yet
#: unlinked. Drained by :func:`release` / :func:`unlink_by_name`; purged
#: at exit so a crashed run cannot strand /dev/shm entries.
_live: set[str] = set()

#: Consumer-side attach cache (pool workers map the same backing segment
#: for many tasks; re-mapping per task would cost a syscall round trip
#: each time). Bounded: oldest mapping is closed once the cap is hit.
#: Small, because a mapping pins its segment's memory even after the
#: owner unlinks it, and a what-if arena is a whole file table.
_attach_cache: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CACHE_CAP = 4


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_counter)}-{secrets.token_hex(4)}"


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister a segment from this process's resource tracker.

    Best-effort: the tracker API is internal, but without this call a
    pool worker's tracker unlinks the segment when the worker exits —
    while the parent still holds views into it.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _track(shm: shared_memory.SharedMemory) -> None:
    """Adopt unlink responsibility in this process's resource tracker."""
    try:
        resource_tracker.register(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def live_segments() -> tuple[str, ...]:
    """Names of segments this process owns and has not yet unlinked."""
    return tuple(sorted(_live))


@dataclass(frozen=True)
class TableHeader:
    """Placement of one array inside a segment (picklable, ~100 bytes)."""

    descr: object  # np.lib.format-style dtype descriptor
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class TablesRef:
    """Header for a whole segment: the only thing that crosses the pipe."""

    name: str
    nbytes: int
    tables: tuple[TableHeader, ...]


def _descr(dtype: np.dtype) -> object:
    return np.lib.format.dtype_to_descr(dtype)


def export_tables(arrays: list[np.ndarray]) -> TablesRef:
    """Copy arrays into one fresh shared segment; return its header.

    One memcpy per array (the only copy the hand-off ever makes). The
    caller — typically a pool worker — must not use the segment after
    this returns: the parent owns it. A failure mid-copy unlinks the
    partial segment before propagating.
    """
    headers: list[TableHeader] = []
    offset = 0
    for a in arrays:
        a = np.ascontiguousarray(a)
        headers.append(TableHeader(_descr(a.dtype), a.shape, offset))
        offset += -(-a.nbytes // _ALIGN) * _ALIGN
    shm = shared_memory.SharedMemory(
        create=True, size=max(offset, 1), name=_segment_name()
    )
    try:
        for a, h in zip(arrays, headers):
            a = np.ascontiguousarray(a)
            view = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=h.offset)
            view[...] = a
            del view  # drop the buffer reference before close/unlink paths
        ref = TablesRef(shm.name, shm.size, tuple(headers))
    except BaseException:
        _untrack(shm)
        try:
            shm.unlink()
        except Exception:
            pass
        shm.close()
        raise
    _untrack(shm)  # the parent adopts unlink responsibility on attach
    shm.close()
    return ref


def import_tables(ref: TablesRef) -> tuple[list[np.ndarray], shared_memory.SharedMemory]:
    """Map a segment and return zero-copy views plus the open mapping.

    The caller owns the returned :class:`SharedMemory`: the views are
    valid only while it stays open, and the caller must hand it to
    :func:`release` when done. The segment is re-registered with this
    process's resource tracker so an unclean exit still reclaims it.
    """
    shm = shared_memory.SharedMemory(name=ref.name)
    _track(shm)
    _live.add(shm.name)
    views = [
        np.ndarray(h.shape, dtype=np.dtype(h.descr), buffer=shm.buf, offset=h.offset)
        for h in ref.tables
    ]
    return views, shm


def release(shm: shared_memory.SharedMemory, *, unlink: bool = True) -> None:
    """Unlink (by default) and close a mapping.

    Unlink happens first: once the name is gone nothing can leak even
    if the close below is blocked. The ``BufferError`` guard covers
    callers holding raw memoryview exports (which do pin the mapping).

    **numpy views do NOT pin the mapping.** ``np.ndarray(buffer=...)``
    drops its buffer export right after construction, so ``close()``
    silently unmaps underneath live arrays and any later element access
    crashes the process. Callers must copy everything they need out of
    imported views *before* calling ``release`` — ``run_sharded``'s
    reduce step is the canonical copy point.
    """
    name = shm.name
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # another owner got there first
            pass
        _live.discard(name)
    try:
        shm.close()
    except BufferError:  # views alive; the mapping dies with them
        pass


def unlink_by_name(name: str) -> None:
    """Unlink a segment by name without holding a mapping (error paths)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        _live.discard(name)
        return
    release(shm, unlink=True)


# -- record-store hand-off ---------------------------------------------------
@dataclass(frozen=True)
class StoreRef:
    """Picklable stand-in for a shard's RecordStore: headers plus the
    (small) catalog metadata. No row bytes; pickles in ~hundreds of
    bytes regardless of shard size — the regression guard in
    tests/test_fabric.py pins that."""

    platform: str
    domains: tuple[str, ...]
    extensions: tuple[str, ...]
    scale: float
    tables: TablesRef


def export_store(store) -> StoreRef:
    """Worker side: move a shard-local RecordStore's tables into shm."""
    return StoreRef(
        store.platform,
        tuple(store.domains),
        tuple(store.extensions),
        store.scale,
        export_tables([store.files, store.jobs]),
    )


def import_store(ref: StoreRef):
    """Parent side: rebuild the RecordStore over zero-copy views.

    Returns ``(store, mapping)``; the store's tables alias the mapping,
    so the mapping must outlive every use of the store (the sharded
    pipelines merge first, then :func:`release`).
    """
    from repro.store.recordstore import RecordStore

    (files, jobs), shm = import_tables(ref.tables)
    store = RecordStore(
        ref.platform,
        files,
        jobs,
        domains=ref.domains,
        extensions=ref.extensions,
        scale=ref.scale,
    )
    return store, shm


# -- preallocated output arenas ---------------------------------------------
@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of a parent-owned output arena."""

    name: str
    descr: object
    shape: tuple[int, ...]

    def open(self) -> np.ndarray:
        """Map the arena (consumer side, cached) and view the array."""
        shm = attach_cached(self.name)
        return np.ndarray(self.shape, dtype=np.dtype(self.descr), buffer=shm.buf)


class Arena:
    """A parent-preallocated segment that workers fill range-by-range.

    The parent sizes the arena for a whole array and workers attach it
    by :class:`ArenaSpec` — the what-if sweep copies the file table in
    once and every worker reads it, with no rows crossing the pool
    pipe. The parent keeps the mapping open for as long as workers may
    attach and unlinks via :meth:`close`.
    """

    def __init__(self, dtype: np.dtype, shape: tuple[int, ...]):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(nbytes, 1), name=_segment_name()
        )
        _live.add(self._shm.name)
        self.spec = ArenaSpec(self._shm.name, _descr(dtype), tuple(shape))

    def view(self) -> np.ndarray:
        return np.ndarray(
            self.spec.shape, dtype=np.dtype(self.spec.descr), buffer=self._shm.buf
        )

    def close(self) -> None:
        release(self._shm, unlink=True)


# -- consumer-side mapping cache --------------------------------------------
def attach_cached(name: str) -> shared_memory.SharedMemory:
    """Map a segment read-through a per-process cache (worker hot path).

    Pool workers are long-lived; a what-if sweep sends every point
    against the same arena, and mapping it once per worker instead of
    once per task keeps the fan-out overhead per point small. Cached
    mappings do NOT take unlink ownership.
    """
    shm = _attach_cache.get(name)
    if shm is None:
        while len(_attach_cache) >= _ATTACH_CACHE_CAP:
            _attach_cache.pop(next(iter(_attach_cache))).close()
        shm = shared_memory.SharedMemory(name=name)
        _attach_cache[name] = shm
    return shm


def drop_cached(name: str) -> None:
    shm = _attach_cache.pop(name, None)
    if shm is not None:
        shm.close()


def _purge() -> None:  # pragma: no cover - interpreter teardown
    for name in list(_live):
        try:
            unlink_by_name(name)
        except Exception:
            pass
    for shm in list(_attach_cache.values()):
        try:
            shm.close()
        except Exception:
            pass
    _attach_cache.clear()


atexit.register(_purge)
