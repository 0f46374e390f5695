"""Shared analysis plan: one-pass masks/groupings over a RecordStore.

Every analysis in this package slices ``store.files`` along the same few
axes — storage layer, I/O interface, shared-file rank, nonzero bytes per
direction — and the seed implementation recomputed those boolean masks
(and copied full 262-byte rows, histograms included) once per analysis.
At facility scale that per-metric rescan dominates: the four stress-test
analyses together fell under the 300k rows/s floor.

:class:`AnalysisContext` is the shared plan. It copies each scalar
column it is asked for **once** out of the wide row table into a
contiguous array, lazily computes each predicate once as a boolean mask,
intersects masks into compact ``int64`` index arrays, caches the derived
columns (total transfer per direction, per-file bandwidth, op-class),
and memoizes whole analysis results. Gathers of a column at an index
array are cheap reads of the contiguous copy and are not cached.
Everything is keyed on the owning store's *generation*: an in-place
mutation followed by :meth:`RecordStore.invalidate` bumps the counter
and a stale context refuses to serve anything rather than return stale
index arrays.

A store has one context per generation, and every analysis entry point
reads it through :meth:`RecordStore.analysis`; there is no way to hand
an entry point a different one. A cold recompute needs a new
``RecordStore`` over the same arrays.

**Append-only growth** (the ``repro.stream`` ingest path) gets a cheaper
discipline than full invalidation: :meth:`AnalysisContext.apply_append`
extends every cached column, mask, index array, and derived column in
place over just the new rows (every predicate is row-local, so the tail
rows' values are computable from the tail alone), and folds memoized
*results* whose aggregates reduce associatively — exact ``int64`` sums,
category counts, histogram bin tallies — as ``merge([old,
compute(tail)])`` through the pair registered with
:func:`register_foldable`. Results without a registration are dropped
(per-entry fallback to the old full-invalidation behaviour) and
recompute cold on next use. See DESIGN.md §11 for the contract.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

import numpy as np

from repro.errors import AnalysisError
from repro.obs.tracer import trace_event
from repro.platforms.interfaces import IOInterface
from repro.store.schema import (
    LAYER_CODES,
    OPCLASS_READ_ONLY,
    OPCLASS_READ_WRITE,
    OPCLASS_WRITE_ONLY,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.recordstore import RecordStore

T = TypeVar("T")

#: Base predicates the mask cache understands, beyond the parametric
#: ``("layer", code)`` / ``("interface", value)`` / ``("pos", column)``
#: forms. "unique" follows the paper's §3.1 accounting: a file accessed
#: via MPI-IO is counted once, through its POSIX record.
_BASE_MASKS = ("unique", "shared", "large_jobs")

#: Rows per gather in :meth:`AnalysisContext.hist_sum`.
_HIST_CHUNK = 65536

#: Foldable memoized results: result name (the second element of a
#: ``("result", name, *params)`` memo key) -> ``(compute, merge)``. See
#: :func:`register_foldable`.
_FOLDABLE: dict[str, tuple[Callable, Callable]] = {}


def register_foldable(name: str, compute: Callable, merge: Callable) -> None:
    """Declare the memoized result ``name`` foldable.

    ``compute(context, *params)`` is the result's cold computation and
    ``merge(results)`` combines results computed over *disjoint row
    sets* of one platform's file table into the result over their
    union — **bit-identically** to ``compute`` over the union. That
    holds for results built only from exact tallies (``int64`` row
    counts, byte sums, histogram-bin totals) over row-local predicates,
    with derived percentages recomputed from the merged tallies.

    This one registration serves every split of the rows: an append
    merges the old result with ``compute`` over the tail rows
    (:meth:`AnalysisContext.apply_append`), and federation merges the
    members' results (:mod:`repro.federation.reduce`). Only results
    that are pure functions of the *file* table may register: the
    append path merges duplicate job rows in place, and folded results
    are kept across appends without consulting the job table.
    """
    _FOLDABLE[name] = (compute, merge)


def foldable_merge(name: str) -> Callable | None:
    """The registered ``merge`` of result ``name``, or None."""
    rule = _FOLDABLE.get(name)
    return rule[1] if rule is not None else None


class AnalysisContext:
    """Memoized masks, index arrays, derived columns, and results.

    Cheap to construct — nothing is computed until asked for. All cache
    entries are tied to the store generation observed at construction;
    :attr:`stale` contexts raise on every access. The store is held
    weakly, so dropping the last reference to a store frees it and its
    cache at once; a context whose store is gone raises
    :class:`~repro.errors.AnalysisError`.
    """

    def __init__(self, store: "RecordStore"):
        # Weak: the store holds its context (RecordStore._analysis), and a
        # strong back-reference would make every dropped store wait for
        # a cyclic garbage collection with its whole cache attached.
        self._store = weakref.ref(store)
        self._generation = store.generation
        self._memo: dict[Hashable, object] = {}
        # Memo hit/miss tallies, read by the tracing layer
        # (repro.obs.integrate.analysis_span) to annotate per-entry-point
        # spans with how much of the work was served from cache. Plain
        # int increments under the existing lock: no allocation pressure
        # on the hot path, live whether or not tracing is enabled.
        self._hits = 0
        self._misses = 0
        # Capacity-backed growth buffers for the append path: memo
        # values are views of these over-allocated arrays, so extending
        # a column/mask/idx over appended rows writes just the tail
        # instead of reallocating O(n) per append. Keyed like _memo.
        self._grow: dict[Hashable, np.ndarray] = {}
        # Concurrent readers (repro.serve worker threads) share one
        # context per store. A single RLock around memoization keeps the
        # dict consistent and gives each key compute-once semantics; it
        # must be re-entrant because computes nest (idx() -> mask()).
        # Computes serialize under the lock — by design: cached values
        # are deterministic, and the serving layer's result cache and
        # coalescer provide the cross-request concurrency instead.
        self._lock = threading.RLock()

    # Locks and weak references are neither picklable nor
    # deep-copyable; stores (which may hold a memoized context) travel
    # through both — pickled stores cross process boundaries, and the
    # property-based aliasing checks copy stores. The state carries the
    # store itself (pickle's memo makes it the same object as the store
    # being restored), re-weakened on restore along with a new lock.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_store"] = self.store
        state["_grow"] = {}  # capacity buffers are rebuilt on demand
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._store = weakref.ref(state["_store"])
        self._lock = threading.RLock()
        # Pickling copies arrays, so restored memo values are no longer
        # views of the growth buffers; drop the buffers and let the next
        # append re-anchor each entry (correctness is unaffected).
        self._grow = {}

    # -- lifecycle -----------------------------------------------------------
    @property
    def store(self) -> "RecordStore":
        """The owning store; raises once it has been garbage-collected."""
        store = self._store()
        if store is None:
            raise AnalysisError(
                "AnalysisContext outlived its RecordStore: the store was "
                "garbage-collected; keep a reference to the store while "
                "using its context"
            )
        return store

    @property
    def generation(self) -> int:
        """Store generation this context was built against."""
        return self._generation

    @property
    def stale(self) -> bool:
        """True once the store mutated past this context."""
        return self._generation != self.store.generation

    def _check_fresh(self) -> None:
        if self.stale:
            raise AnalysisError(
                "stale AnalysisContext: store generation moved from "
                f"{self._generation} to {self.store.generation}; call "
                "store.analysis() for a fresh context"
            )

    def cache_counts(self) -> tuple[int, int]:
        """(memo hits, memo misses) since construction.

        Monotonic tallies; span instrumentation differences two
        snapshots to attribute cache behaviour to one entry point.
        """
        with self._lock:
            return self._hits, self._misses

    def cache_info(self) -> dict[str, int]:
        """Entry counts per cache kind (introspection for tests/benches)."""
        kinds: dict[str, int] = {}
        with self._lock:
            keys = list(self._memo)
        for key in keys:
            kind = key[0] if isinstance(key, tuple) else str(key)
            kinds[str(kind)] = kinds.get(str(kind), 0) + 1
        return kinds

    # -- append-only growth --------------------------------------------------
    def apply_append(
        self,
        files_full: np.ndarray,
        files_tail: np.ndarray,
        new_jobs: np.ndarray,
    ) -> None:
        """Grow the owning store in place, delta-updating this context.

        Called by :meth:`RecordStore.append` when this context is live
        and fresh. ``files_full`` is the already-grown file table (old
        rows then ``files_tail``), ``new_jobs`` the merged job table.
        The table swap, generation bump, and every cache update happen
        under the context lock, so concurrent readers (serve workers)
        observe either the fully-old or the fully-new state.

        Every cached column/mask/idx/derived column is extended over
        just the tail rows; memoized results fold through their
        registered ``(compute, merge)`` or are dropped. Any failure
        inside the delta update falls back to clearing the memo
        outright — the context stays correct, merely cold.
        """
        from repro.store.recordstore import RecordStore
        from repro.store.schema import empty_jobs

        store = self.store
        with self._lock:
            self._check_fresh()
            old_rows = len(store.files)
            store.files = files_full
            store.jobs = new_jobs
            store._generation += 1
            self._generation = store._generation
            try:
                tail_store = RecordStore(
                    store.platform,
                    files_tail,
                    empty_jobs(0),
                    domains=store.domains,
                    extensions=store.extensions,
                    scale=store.scale,
                )
                tail = AnalysisContext(tail_store)
                self._extend_primitives(tail, old_rows)
                self._fold_results(tail)
            except Exception as exc:
                # Correctness over warmth: a failed delta update must
                # never leave a half-extended cache behind. The append
                # itself already succeeded — the store tables and
                # generation are consistent — so degrade to a cold
                # cache instead of failing the caller's append.
                self._memo.clear()
                self._grow.clear()
                trace_event(
                    "analysis.delta_fallback",
                    "analysis",
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _extend_primitives(
        self, tail_ctx: "AnalysisContext", n_old: int
    ) -> None:
        """Extend every cached array entry over the appended rows.

        All primitives are row-local (each row's column/mask/derived
        value is a function of that row alone) and row-order-preserving
        (columns follow the table, ``idx`` is ascending), so the grown
        entry is exactly the old entry followed by the tail entry
        computed on the tail rows.
        """
        for key in list(self._memo):
            if isinstance(key, tuple):
                kind = key[0]
                if kind == "result":
                    continue  # handled by _fold_results
                if kind == "hist_sum":
                    # Not a row-aligned array: an exact int64 reduction.
                    # Bin totals add associatively, so the grown entry is
                    # the old totals plus the tail totals — elementwise
                    # add, no growth buffer involved.
                    self._memo[key] = self._memo[key] + tail_ctx.hist_sum(
                        key[1], *key[2]
                    )
                    continue
                if kind == "column":
                    tail = tail_ctx.column(key[1])
                elif kind == "mask":
                    tail = tail_ctx.mask(key[1])
                elif kind == "idx":
                    tail = tail_ctx.idx(*key[1]) + n_old
                elif kind == "bandwidth":
                    tail = tail_ctx.bandwidth(key[1])
                else:  # unknown kind: drop rather than guess
                    del self._memo[key]
                    continue
            elif key == "transfer_sizes":
                tail = tail_ctx.transfer_sizes()
            elif key == "opclass":
                tail = tail_ctx.opclass()
            else:
                del self._memo[key]
                continue
            self._memo[key] = self._append_values(key, self._memo[key], tail)

    def _append_values(
        self, key: Hashable, old: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        """``concat(old, tail)`` through a capacity-backed buffer.

        The returned array is a view ``buf[:n+k]`` of an over-allocated
        buffer; old views (``buf[:n]``) keep their contents because only
        rows past ``n`` are written. When the memo value is already
        anchored in the buffer, appending costs O(tail) — amortized
        O(tail) across appends including the occasional realloc copy.
        """
        old = np.asarray(old)
        tail = np.asarray(tail)
        n, k = len(old), len(tail)
        buf = self._grow.get(key)
        if buf is None or old.base is not buf or len(buf) < n + k:
            cap = max(64, int((n + k) * 1.5))
            buf = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            buf[:n] = old
            self._grow[key] = buf
        buf[n : n + k] = tail
        return buf[: n + k]

    def _fold_results(self, tail_ctx: "AnalysisContext") -> None:
        """Merge each foldable memoized result with its tail; drop the rest."""
        result_keys = [
            k
            for k in self._memo
            if isinstance(k, tuple) and len(k) >= 2 and k[0] == "result"
        ]
        for key in result_keys:
            rule = _FOLDABLE.get(key[1])
            if rule is None:
                del self._memo[key]
            else:
                compute, merge = rule
                self._memo[key] = merge(
                    [self._memo[key], compute(tail_ctx, *key[2:])]
                )

    # -- generic memo --------------------------------------------------------
    def cached(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Memoize ``compute()`` under ``key`` for this store generation.

        Thread-safe: the first caller for a key computes under the
        context lock, every later caller (from any thread) gets the same
        object back. Callers must treat returned arrays as read-only.
        """
        self._check_fresh()
        with self._lock:
            try:
                value = self._memo[key]  # type: ignore[return-value]
            except KeyError:
                self._misses += 1
                value = compute()
                self._memo[key] = value
            else:
                self._hits += 1
            return value

    # -- columns (one contiguous copy each) ---------------------------------
    def column(self, name: str) -> np.ndarray:
        """One column of ``store.files`` as a cached contiguous copy.

        A field of the structured file table is a strided view: every
        read of it walks the whole 262-byte-row table (mmap-loaded, for
        saved stores). Copying each column once makes every later mask,
        gather and derived column a sequential pass over that one field.
        Histogram columns are not read through here (see
        :meth:`hist_sum`).
        """
        return self.cached(
            ("column", name),
            lambda: np.ascontiguousarray(self.store.files[name]),
        )

    # -- boolean masks -------------------------------------------------------
    def mask(self, key) -> np.ndarray:
        """One predicate over all file rows, computed once.

        Keys: ``"unique"`` (interface != MPI-IO), ``"shared"``
        (rank == −1), ``"large_jobs"`` (nprocs > 1024),
        ``("layer", code)``, ``("interface", value)``, and
        ``("pos", column)`` (column > 0).
        """
        return self.cached(("mask", key), lambda: self._compute_mask(key))

    def _compute_mask(self, key) -> np.ndarray:
        col = self.column
        if key == "unique":
            return col("interface") != int(IOInterface.MPIIO)
        if key == "shared":
            return col("rank") == -1
        if key == "large_jobs":
            return col("nprocs") > 1024
        if isinstance(key, tuple) and len(key) == 2:
            kind, arg = key
            if kind == "layer":
                return col("layer") == arg
            if kind == "interface":
                return col("interface") == int(arg)
            if kind == "pos":
                return col(arg) > 0
        raise AnalysisError(f"unknown mask key {key!r}")

    # -- index arrays --------------------------------------------------------
    def idx(self, *keys) -> np.ndarray:
        """Row indices where every named mask holds, as a cached array.

        The conjunction of cached byte masks is far cheaper than the
        seed path's full-row fancy indexing, and the resulting ``int64``
        index array is reused by every analysis that groups on the same
        axes. Indices are ascending, so column gathers preserve row
        order — sums and CDFs come out bit-identical to a boolean
        selection.
        """

        def compute() -> np.ndarray:
            combined = self.mask(keys[0])
            for key in keys[1:]:
                combined = combined & self.mask(key)
            return np.flatnonzero(combined)

        if not keys:
            raise AnalysisError("idx() needs at least one mask key")
        # Mask conjunction is commutative; normalize the key order so
        # idx(a, b) and idx(b, a) share one cache entry.
        keys = tuple(sorted(keys, key=repr))
        return self.cached(("idx", keys), compute)

    def layer_items(self):
        """(name, code) pairs of the paper's real layers, 'other' skipped."""
        return tuple(
            (name, code) for name, code in LAYER_CODES.items() if name != "other"
        )

    # -- derived columns -----------------------------------------------------
    def transfer_sizes(self) -> np.ndarray:
        """Per-file total transfer (read + written), cached."""
        return self.cached(
            "transfer_sizes",
            lambda: self.column("bytes_read") + self.column("bytes_written"),
        )

    def opclass(self) -> np.ndarray:
        """Read-only / read-write / write-only code per file, cached."""

        def compute() -> np.ndarray:
            r = self.mask(("pos", "bytes_read"))
            w = self.mask(("pos", "bytes_written"))
            out = np.full(
                len(self.store.files), OPCLASS_READ_ONLY, dtype=np.uint8
            )
            out[r & w] = OPCLASS_READ_WRITE
            out[~r & w] = OPCLASS_WRITE_ONLY
            return out

        return self.cached("opclass", compute)

    def bandwidth(self, direction: str) -> np.ndarray:
        """Per-file bytes/s for a direction; NaN where no time recorded."""
        if direction not in ("read", "write"):
            raise AnalysisError(f"direction must be read/write, got {direction!r}")

        def compute() -> np.ndarray:
            nbytes = self.column(f"bytes_{'read' if direction == 'read' else 'written'}")
            times = self.column(f"{direction}_time")
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(times > 0, nbytes / times, np.nan)

        return self.cached(("bandwidth", direction), compute)

    # -- grouped gathers -----------------------------------------------------
    def gather(self, column: str, *keys) -> np.ndarray:
        """Column values at ``idx(*keys)``: a new compact copy per call.

        Not memoized: indexing the cached contiguous column is cheap,
        and a second cached copy of every gathered group would grow the
        memo by the size of the columns it already holds. The column and
        the index array are read under the context lock, so an append
        from another thread cannot land between them.
        """
        with self._lock:
            return self.column(column)[self.idx(*keys)]

    def hist_sum(self, column: str, *keys) -> np.ndarray:
        """Per-bin ``int64`` totals of a histogram column at ``idx(*keys)``.

        The aggregate behind the request-size CDFs. Cached as its own
        primitive (rather than inside the analysis result) because bin
        totals reduce associatively and exactly in ``int64`` — the append
        path adds the tail's totals instead of re-reading every row.
        Reads the strided table directly: a contiguous copy of a 10-bin
        histogram column is ten scalar columns wide, and the gather
        touches only the selected rows. It gathers and sums
        ``_HIST_CHUNK`` rows at a time, so the temporary stays at 5 MB
        instead of growing by 80 bytes per selected row; ``int64`` sums
        are exact, so the totals do not depend on the chunking.
        """

        def compute() -> np.ndarray:
            table = self.store.files[column]
            idx = self.idx(*keys)
            totals = np.zeros(table.shape[1:], dtype=table.dtype)
            for start in range(0, len(idx), _HIST_CHUNK):
                totals += table[idx[start : start + _HIST_CHUNK]].sum(axis=0)
            return totals

        keys = tuple(sorted(keys, key=repr))
        return self.cached(("hist_sum", column, keys), compute)

    def positive(self, column: str, *keys) -> np.ndarray:
        """Positive entries of :meth:`gather` (not memoized).

        This is the per-(group, direction) value set behind the transfer
        CDFs: files with zero bytes in a direction do not enter that
        direction's curve.
        """
        vals = self.gather(column, *keys)
        return vals[vals > 0]

    def __repr__(self) -> str:
        store = self._store()
        if store is None:
            return f"AnalysisContext(<store gone>, generation={self._generation})"
        state = "stale" if self.stale else "fresh"
        return (
            f"AnalysisContext({store.platform!r}, "
            f"generation={self._generation}, {state}, "
            f"{len(self._memo)} cached)"
        )

