"""Deterministic process-pool fan-out for the sharded pipelines.

Two stages fan out: ingest of a year of serialized logs
(:func:`repro.store.ingest.ingest_log_paths`) and what-if sweeps
(:func:`repro.whatif.sweep`). At two workers on a 2-core host they ran
1.90x and 1.50x faster than serial; sharded generation ran 1.08x and
was removed (DESIGN.md §8). Both follow the same recipe: split the work into
*shards* whose boundaries depend only on the input (never on worker
count or scheduling), run each shard in a worker process, and reassemble
the shard results **in shard order**. Shard boundaries are contiguous,
cost-balanced slices of the unit list, so the concatenation of shard
outputs equals the serial iteration order.

Shard results come back through the pool pipe as ordinary pickles; the
caller reduces them (ingest merges its shard stores with
:func:`repro.store.merge.merge_stores`). One pool per worker count is
kept alive for the process (torn down at exit), so a run that fans out
repeatedly — a session of what-if sweeps — pays pool startup once.

Worker failures are wrapped in :class:`repro.errors.ShardError` carrying
the failing shard's id; one bad shard fails the whole run loudly rather
than silently dropping a slice of the year.

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
from multiprocessing import resource_tracker
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError, ShardError
from repro.obs.integrate import adopt_worker_records, capture_worker
from repro.obs.tracer import get_tracer, trace_span

T = TypeVar("T")

#: Shards per worker: more shards than workers lets the pool rebalance a
#: straggler, while contiguity keeps reassembly order-deterministic.
SHARDS_PER_WORKER = 4

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
    """``fork`` where available (no re-import per worker), else the
    platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        # A forked worker inherits the resource tracker only if it is
        # already running; otherwise each worker starts its own, and the
        # shared-memory arenas it maps (fabric.attach_cached) get
        # unlinked — with a warning per name — when that worker exits.
        # spawn/forkserver start the parent's tracker themselves.
        resource_tracker.ensure_running()
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def get_pool(processes: int):
    """A shared pool with ``processes`` workers, created once per size.

    Reuse amortizes worker startup across every fan-out of a run (a
    pool built per call cost more than the sharded work saved on small
    runs). The cache keeps the last couple of sizes; anything older is
    drained.
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
    """
    fn, shard_id, payload, capture = args
    try:
        if capture:
            value, records = capture_worker(fn, payload)
        else:
            value, records = fn(payload), None
        return ("ok", shard_id, value, records)
    except Exception as exc:  # noqa: BLE001 - reported via ShardError
        return (
            "err",
            shard_id,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )


def run_sharded(
    fn: Callable[[object], T], payloads: Sequence[object], *, jobs: int | None
) -> list[T]:
    """Run ``fn`` over each payload, fanning out across ``jobs`` processes.

    Results come back ordered by shard index regardless of completion
    order. ``fn`` must be a module-level (picklable) callable. With
    ``jobs`` ≤ 1 or a single payload everything runs inline — the serial
    and parallel code paths are literally the same function applications.
    """
    njobs = resolve_jobs(jobs)
    inline = njobs <= 1 or len(payloads) <= 1
    # Workers trace into their own stores and ship records back; inline
    # shards run under the parent's already-active tracer directly.
    capture = not inline and get_tracer() is not None
    tasks = [(fn, i, p, capture) for i, p in enumerate(payloads)]
    if inline:
        results = [_invoke(t) for t in tasks]
    else:
        with trace_span("parallel.run", "parallel") as sp:
            if sp is not None:
                sp.add(jobs=njobs, shards=len(tasks))
            nproc = min(njobs, len(tasks))
            try:
                results = get_pool(nproc).map(_invoke, tasks)
            except Exception:
                # A lost worker breaks the whole pool object, not just
                # the call; drop it so the next run starts clean.
                _drop_pool(nproc)
                raise
    out: list[T] = [None] * len(tasks)  # type: ignore[list-item]
    for res in results:
        if res[0] == "err":
            _, shard_id, message, tb = res
            err = ShardError(shard_id, message)
            err.worker_traceback = tb
            raise err
        _, shard_id, value, records = res
        if records:
            adopt_worker_records(records, shard_id)
        out[shard_id] = value
    return out
