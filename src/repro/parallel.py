"""Deterministic process-pool fan-out for the sharded pipelines.

The generate and ingest paths both follow the same recipe: split the work
into *shards* whose boundaries depend only on the input (never on worker
count or scheduling), run each shard in a worker process, and reassemble
the shard results **in shard order**. Determinism then rests on two
invariants this module helps enforce:

* shard boundaries are contiguous, cost-balanced slices of the unit list,
  so the concatenation of shard outputs equals the serial iteration order;
* randomness is keyed per *unit* (see the generator's per-block RNG
  substreams), never per shard, so the sampled population is identical for
  every worker count.

Two perf disciplines keep the fan-out from eating its own winnings
(DESIGN.md §12):

* **Zero-copy hand-off** — with ``shm=True`` a worker's RecordStore
  result travels as a :class:`repro.fabric.StoreRef` header while the
  table bytes move through shared memory; nothing but headers crosses
  the pool pipe. The caller supplies ``reduce`` so the parent can merge
  the shard views and release every segment before returning.
* **Pool reuse** — one pool per worker count is kept alive for the
  process (torn down at exit), so a run that fans out repeatedly — a
  session of what-if sweeps — pays pool startup once, not per call.

Worker failures are wrapped in :class:`repro.errors.ShardError` carrying
the failing shard's id; one bad shard fails the whole run loudly rather
than silently dropping a slice of the year — and the parent unlinks every
other shard's shared segment first, so the failure leaks nothing.

When tracing is active (:mod:`repro.obs`), each pool worker runs its
shard under a fresh tracer and ships the finished span records back
inside the result tuple; the parent splices them into its own tracer
(one export track per shard), so a sharded run still yields one
coherent trace. The inline (``jobs <= 1``) path needs none of that —
the parent's tracer is already active where the work runs.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import traceback
from typing import Callable, Sequence, TypeVar

from repro import fabric
from repro.errors import ConfigurationError, ShardError
from repro.obs.integrate import adopt_worker_records, capture_worker
from repro.obs.tracer import get_tracer, trace_span

T = TypeVar("T")

#: Shards per worker: more shards than workers lets the pool rebalance a
#: straggler, while contiguity keeps reassembly order-deterministic.
SHARDS_PER_WORKER = 4

#: Start method for the shared pools. ``fork`` is the fast default where
#: available (no re-import, payloads stay cheap); override with
#: ``REPRO_MP_START=forkserver|spawn`` for embedders whose main process
#: cannot be forked safely (threads holding locks, GPU contexts, ...).
_START_ENV = "REPRO_MP_START"


def usable_cores() -> int:
    """Cores this process may actually run on.

    Under CPU affinity (cgroup pinning, ``taskset``, batch-scheduler
    slots) ``os.cpu_count()`` reports the machine, not the allocation;
    sizing a pool to it oversubscribes the slot. Prefer the affinity
    mask where the platform exposes one.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # macOS/Windows: no affinity API
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/1 → serial, 0 → usable cores."""
    if jobs is None:
        return 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ConfigurationError(f"jobs must be an int, got {jobs!r}")
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return usable_cores()
    return jobs


def contiguous_shards(costs: Sequence[float], nshards: int) -> list[slice]:
    """Split ``range(len(costs))`` into ≤ ``nshards`` contiguous slices.

    Greedy sweep: close a shard once it has accumulated its fair share of
    the remaining cost. Contiguity (never cost-optimal bin packing) is
    deliberate — concatenating shard outputs in shard order must reproduce
    the serial unit order exactly.
    """
    n = len(costs)
    if n == 0:
        return []
    nshards = max(1, min(nshards, n))
    total = float(sum(costs))
    if total <= 0:
        # Degenerate cost model: equal-count slices.
        step = -(-n // nshards)
        return [slice(i, min(i + step, n)) for i in range(0, n, step)]
    out: list[slice] = []
    start = 0
    acc = 0.0
    spent = 0.0
    for i, c in enumerate(costs):
        acc += float(c)
        shards_left = nshards - len(out)
        if shards_left <= 1:
            break  # the last shard absorbs the tail
        fair = (total - spent) / shards_left
        # Close the shard at its fair share — unless every remaining unit
        # is needed to fill the remaining shards one apiece.
        if acc >= fair and (n - i - 1) >= (shards_left - 1):
            out.append(slice(start, i + 1))
            start = i + 1
            spent += acc
            acc = 0.0
    if start < n:
        out.append(slice(start, n))
    return out


# -- persistent pools --------------------------------------------------------
_pools: dict[int, object] = {}
_POOL_CACHE_CAP = 2


def _pool_context():
    method = os.environ.get(_START_ENV)
    if method:
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def get_pool(processes: int):
    """A shared pool with ``processes`` workers, created once per size.

    Reuse amortizes worker startup across every fan-out of a run (the
    PR 3 pipeline paid pool construction per call, which on small runs
    cost more than the sharded work saved). The cache keeps the last
    couple of sizes; anything older is drained.
    """
    pool = _pools.get(processes)
    if pool is None:
        while len(_pools) >= _POOL_CACHE_CAP:
            oldest = next(iter(_pools))
            _pools.pop(oldest).terminate()
        pool = _pool_context().Pool(processes=processes)
        _pools[processes] = pool
    return pool


def _drop_pool(processes: int) -> None:
    """Discard a pool whose workers died (broken pools don't heal)."""
    pool = _pools.pop(processes, None)
    if pool is not None:
        pool.terminate()


def pool_map(processes: int, fn, tasks: list) -> list:
    """``pool.map`` through the shared pool cache."""
    return get_pool(processes).map(fn, tasks)


def shutdown_pools() -> None:
    """Terminate every cached pool (tests and interpreter exit)."""
    for pool in list(_pools.values()):
        pool.terminate()
        pool.join()
    _pools.clear()


atexit.register(shutdown_pools)


def _invoke(args: tuple) -> tuple:
    """Pool entry point: run one shard, never raise across the pipe.

    ``capture`` asks the worker to trace the shard under a fresh tracer
    and return the span records alongside the value (``None`` when
    tracing is off or the shard ran inline under the parent's tracer).
    ``encode`` moves a RecordStore result's tables into shared memory
    and returns the :class:`repro.fabric.StoreRef` header in its place —
    the pickle crossing the pipe stays a few hundred bytes per shard no
    matter how many million rows the shard produced.
    """
    fn, shard_id, payload, capture, encode = args
    try:
        if capture:
            value, records = capture_worker(fn, payload)
        else:
            value, records = fn(payload), None
        if encode:
            value = _encode_value(value)
        return ("ok", shard_id, value, records)
    except Exception as exc:  # noqa: BLE001 - reported via ShardError
        return (
            "err",
            shard_id,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )


def _encode_value(value):
    from repro.store.recordstore import RecordStore

    if isinstance(value, tuple):
        # Compound results (the what-if sweep's (report, store) pairs)
        # encode elementwise: each RecordStore member rides shm, the
        # rest pickle as usual.
        return tuple(_encode_value(v) for v in value)
    if isinstance(value, RecordStore):
        return fabric.export_store(value)
    return value


def _decode_value(value, segments: list):
    if isinstance(value, tuple):
        return tuple(_decode_value(v, segments) for v in value)
    if isinstance(value, fabric.StoreRef):
        store, shm = fabric.import_store(value)
        segments.append(shm)
        return store
    return value


def _segment_names(value):
    """Shm segment names behind a decoded-able result value, if any."""
    if isinstance(value, tuple):
        for v in value:
            yield from _segment_names(v)
    elif isinstance(value, fabric.StoreRef):
        yield value.tables.name


def run_sharded(
    fn: Callable[[object], T],
    payloads: Sequence[object],
    *,
    jobs: int | None,
    shm: bool = False,
    reduce: Callable[[list[T]], object] | None = None,
):
    """Run ``fn`` over each payload, fanning out across ``jobs`` processes.

    Results come back ordered by shard index regardless of completion
    order. ``fn`` must be a module-level (picklable) callable. With
    ``jobs`` ≤ 1 or a single payload everything runs inline — the serial
    and parallel code paths are literally the same function applications.

    ``shm=True`` routes RecordStore results through the shared-memory
    fabric instead of the pool pipe; it requires ``reduce``, which runs
    over the zero-copy shard views while the segments are still mapped —
    every segment is closed and unlinked before this function returns
    (success or failure), so the reduced value must not alias shard
    memory (:func:`repro.store.merge.merge_stores` copies, and is the
    intended reducer).
    """
    if shm and reduce is None:
        raise ConfigurationError("run_sharded(shm=True) requires a reduce callable")
    njobs = resolve_jobs(jobs)
    inline = njobs <= 1 or len(payloads) <= 1
    # Workers trace into their own stores and ship records back; inline
    # shards run under the parent's already-active tracer directly.
    capture = not inline and get_tracer() is not None
    encode = shm and not inline
    tasks = [(fn, i, p, capture, encode) for i, p in enumerate(payloads)]
    if inline:
        results = [_invoke(t) for t in tasks]
    else:
        with trace_span("parallel.run", "parallel") as sp:
            if sp is not None:
                sp.add(jobs=njobs, shards=len(tasks), shm=encode)
            nproc = min(njobs, len(tasks))
            try:
                results = pool_map(nproc, _invoke, tasks)
            except ShardError:
                raise
            except Exception:
                # A lost worker breaks the whole pool object, not just
                # the call; drop it so the next run starts clean.
                _drop_pool(nproc)
                raise
    segments: list = []
    out: list[T] = [None] * len(tasks)  # type: ignore[list-item]
    try:
        for res in results:
            if res[0] == "err":
                _, shard_id, message, tb = res
                err = ShardError(shard_id, message)
                err.worker_traceback = tb
                raise err
            _, shard_id, value, records = res
            if records:
                adopt_worker_records(records, shard_id)
            out[shard_id] = _decode_value(value, segments)
        return reduce(out) if reduce is not None else out
    except BaseException:
        # One bad shard (or a failing reduce) must not strand the other
        # shards' /dev/shm segments: close what we mapped, unlink what
        # we never got to.
        mapped = {s.name for s in segments}
        for res in results:
            if res[0] != "ok":
                continue
            for name in _segment_names(res[2]):
                if name not in mapped:
                    fabric.unlink_by_name(name)
        raise
    finally:
        for shm_seg in segments:
            fabric.release(shm_seg, unlink=True)
