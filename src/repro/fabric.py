"""Shared-memory arenas for the what-if sweep's process-pool fan-out.

A pooled sweep (:func:`repro.whatif.sweep`) evaluates every point
against the same file table. Pickling that table into each task would
copy the whole year per point, so the parent copies it once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment (an
:class:`Arena`) and ships only a tiny picklable :class:`ArenaSpec`
(segment name, dtype descriptor, shape); workers map the segment and
view the rows in place.

Ownership/lifecycle contract (DESIGN.md §12):

* The **parent** creates the arena, keeps its mapping open for as long
  as workers may attach, and is solely responsible for unlinking it
  (:meth:`Arena.close`).
* **Workers** map it read-through a per-process cache
  (:func:`attach_cached`) and never unlink it. The pool is forked with
  the parent's resource tracker already running (:mod:`repro.parallel`),
  so a worker's mapping registers with the tracker that already holds
  the parent's registration instead of a worker-private tracker that
  would unlink the arena when the worker exits.

Every arena this process created is tracked in a module registry
(:func:`live_segments`) and force-unlinked at interpreter exit as a
last-ditch guard; tests assert the registry drains back to empty.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: /dev/shm name prefix for every fabric segment; tests and operators
#: can spot (and sweep) repro-owned segments by it.
SEGMENT_PREFIX = "repro-fab"

_counter = itertools.count()

#: Arenas this process created and has not yet unlinked, by name.
#: Drained by :meth:`Arena.close`; purged at exit so a crashed run
#: cannot strand /dev/shm entries.
_live: dict[str, shared_memory.SharedMemory] = {}

#: Consumer-side attach cache (pool workers map the same backing segment
#: for many tasks; re-mapping per task would cost a syscall round trip
#: each time). Bounded: oldest mapping is closed once the cap is hit.
#: Small, because a mapping pins its segment's memory even after the
#: owner unlinks it, and a what-if arena is a whole file table.
_attach_cache: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CACHE_CAP = 4


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_counter)}-{secrets.token_hex(4)}"


def live_segments() -> tuple[str, ...]:
    """Names of arenas this process owns and has not yet unlinked."""
    return tuple(sorted(_live))


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of a parent-owned arena."""

    name: str
    descr: object  # np.lib.format-style dtype descriptor
    shape: tuple[int, ...]

    def open(self) -> np.ndarray:
        """Map the arena (consumer side, cached) and view the array."""
        shm = attach_cached(self.name)
        return np.ndarray(self.shape, dtype=np.dtype(self.descr), buffer=shm.buf)


class Arena:
    """A parent-owned segment sized for one array that workers attach.

    The what-if sweep copies the file table in once and every worker
    reads it by :class:`ArenaSpec`, with no rows crossing the pool pipe.
    """

    def __init__(self, dtype: np.dtype, shape: tuple[int, ...]):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(nbytes, 1), name=_segment_name()
        )
        _live[self._shm.name] = self._shm
        self.spec = ArenaSpec(
            self._shm.name, np.lib.format.dtype_to_descr(dtype), tuple(shape)
        )

    def view(self) -> np.ndarray:
        return np.ndarray(
            self.spec.shape, dtype=np.dtype(self.spec.descr), buffer=self._shm.buf
        )

    def close(self) -> None:
        """Unlink, then close the mapping.

        Unlink happens first: once the name is gone nothing can leak even
        if the close below is blocked. The ``BufferError`` guard covers
        callers holding raw memoryview exports (which do pin the mapping).

        **numpy views do NOT pin the mapping.** ``np.ndarray(buffer=...)``
        drops its buffer export right after construction, so ``close()``
        silently unmaps underneath live arrays; copy out of :meth:`view`
        before closing.
        """
        _release(self._shm)


def _release(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.unlink()
    except FileNotFoundError:  # another owner got there first
        pass
    _live.pop(shm.name, None)
    try:
        shm.close()
    except BufferError:  # views alive; the mapping dies with them
        pass


# -- consumer-side mapping cache --------------------------------------------
def attach_cached(name: str) -> shared_memory.SharedMemory:
    """Map a segment read-through a per-process cache (worker hot path).

    Pool workers are long-lived; a what-if sweep sends every point
    against the same arena, and mapping it once per worker instead of
    once per task keeps the fan-out overhead per point small. Cached
    mappings do NOT take unlink ownership (see the module docstring).
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
    for shm in list(_live.values()):
        try:
            _release(shm)
        except Exception:
            pass
    for shm in list(_attach_cache.values()):
        try:
            shm.close()
        except Exception:
            pass
    _attach_cache.clear()


atexit.register(_purge)
