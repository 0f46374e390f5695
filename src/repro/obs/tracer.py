"""The span tracer: thread-local span stacks over a bounded store.

Design constraints, in priority order:

1. **Zero cost when disabled.** Instrumentation points stay in the hot
   paths permanently, so the disabled form must not allocate: the
   module-level :func:`trace_span` returns a shared no-op context
   manager when no tracer is active, and never builds an attrs dict.
   Hot callers attach attributes only through the ``sp is not None``
   guard (the no-op's ``__enter__`` returns ``None``).
2. **Bounded memory when enabled.** Finished spans land in a
   :class:`~repro.obs.spans.SpanStore` ring; an over-instrumented run
   drops its oldest spans instead of growing.
3. **Cross-process coherence.** A tracer stamps spans with
   wall-anchored monotonic time (:mod:`repro.obs.clock`), so records
   captured by sharded-pipeline workers and adopted by the parent
   (:meth:`Tracer.adopt`) line up on one timeline.

Nesting is tracked explicitly: each thread keeps a stack of open spans,
and every record carries its stack ``depth``, so parent/child structure
survives export and adoption without timestamp heuristics.
"""

from __future__ import annotations

import functools
import threading

from repro.obs.clock import perf_ns, wall_anchor_ns
from repro.obs.spans import (
    DEFAULT_CAPACITY,
    PHASE_EVENT,
    PHASE_SPAN,
    SpanRecord,
    SpanStore,
)


class _NoopSpan:
    """The shared disabled-tracing context manager (allocates nothing)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP = _NoopSpan()


class _Span:
    """An open span: context manager handle with attachable attributes."""

    __slots__ = ("_tracer", "name", "cat", "args", "_tid", "_depth", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def add(self, **attrs) -> "_Span":
        """Attach attributes to the span (exported as Chrome-trace args)."""
        if self.args is None:
            self.args = attrs
        else:
            self.args.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._tid = tracer._tid()
        stack = tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = perf_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_ns()
        tracer = self._tracer
        tracer._stack().pop()
        if exc_type is not None:
            self.add(error=f"{exc_type.__name__}: {exc}")
        tracer.store.add(
            SpanRecord(
                self.name, self.cat, self._tid,
                tracer.anchor_ns + self._start, end - self._start,
                self._depth, PHASE_SPAN, self.args,
            )
        )
        return False


class Tracer:
    """Collects spans from any number of threads into one bounded store."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, process: str = "repro"):
        self.store = SpanStore(capacity)
        self.process = process
        #: Wall-clock epoch of this process's perf_counter origin; added
        #: to every span start so traces from different processes share
        #: a timeline (durations stay pure monotonic deltas).
        self.anchor_ns = wall_anchor_ns()
        self._local = threading.local()
        self._tid_lock = threading.Lock()
        self._next_tid = 1
        self.thread_names: dict[int, str] = {}

    # -- thread bookkeeping --------------------------------------------------
    def _tid(self) -> int:
        tid = getattr(self._local, "tid", None)
        if tid is None:
            with self._tid_lock:
                tid = self._next_tid
                self._next_tid += 1
                self.thread_names[tid] = threading.current_thread().name
            self._local.tid = tid
        return tid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc_tid(self, name: str) -> int:
        with self._tid_lock:
            tid = self._next_tid
            self._next_tid += 1
            self.thread_names[tid] = name
        return tid

    # -- recording -----------------------------------------------------------
    def span(self, name: str, cat: str = "", **attrs) -> _Span:
        """A context manager timing one span on the calling thread."""
        return _Span(self, name, cat, attrs or None)

    def event(self, name: str, cat: str = "", **attrs) -> None:
        """An instant event (zero duration) at the current time."""
        self.store.add(
            SpanRecord(
                name, cat, self._tid(), self.anchor_ns + perf_ns(), 0,
                len(self._stack()), PHASE_EVENT, attrs or None,
            )
        )

    def record(
        self,
        name: str,
        cat: str,
        start_perf_ns: int,
        dur_ns: int,
        **attrs,
    ) -> None:
        """Add a completed span directly, bypassing the thread stack.

        For async code: a coroutine that awaits mid-span interleaves
        with other tasks on the same loop thread, so stack-discipline
        spans would mis-nest. Record the span after the fact from two
        :func:`~repro.obs.clock.perf_ns` readings instead.
        """
        self.store.add(
            SpanRecord(
                name, cat, self._tid(), self.anchor_ns + start_perf_ns,
                dur_ns, 0, PHASE_SPAN, attrs or None,
            )
        )

    # -- cross-process splice ------------------------------------------------
    def adopt(self, records, label: str) -> None:
        """Splice another tracer's records (e.g. a pool worker's) in.

        Worker-local thread ids are remapped to fresh ids here, named
        ``label:<worker thread name>``, so shards land on distinct
        export tracks; timestamps and depths pass through unchanged
        (both tracers anchor to the wall clock).
        """
        tid_map: dict[object, int] = {}
        for rec in records:
            tid = tid_map.get(rec.tid)
            if tid is None:
                tid = tid_map[rec.tid] = self._alloc_tid(f"{label}:{rec.tid}")
            self.store.add(
                SpanRecord(
                    rec.name, rec.cat, tid, rec.start_ns, rec.dur_ns,
                    rec.depth, rec.phase, rec.args,
                )
            )

    # -- reading -------------------------------------------------------------
    def records(self):
        """Snapshot of finished spans (insertion — i.e. finish — order)."""
        return self.store.records()

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return f"Tracer({self.process!r}, {self.store!r})"


# -- the active tracer --------------------------------------------------------
_active: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The process-wide active tracer, or None when tracing is disabled."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear) the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


def trace_span(name: str, cat: str = ""):
    """Span on the active tracer, or a shared no-op when disabled.

    The hot-path entry point: when tracing is off this allocates
    nothing (no attrs dict, no context-manager object — the no-op is a
    module-level singleton whose ``__enter__`` returns ``None``).
    Attach attributes only under an ``if sp is not None:`` guard::

        with trace_span("ingest.logs", "ingest") as sp:
            ...
            if sp is not None:
                sp.add(rows=len(files))
    """
    tracer = _active
    if tracer is None:
        return _NOOP
    return tracer.span(name, cat)


def trace_event(name: str, cat: str = "", **attrs) -> None:
    """Instant event on the active tracer; silently dropped when disabled."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, cat, **attrs)


def traced(name: str | None = None, cat: str = ""):
    """Decorator form: wrap every call of ``fn`` in a span.

    With tracing disabled the wrapper adds one attribute load and one
    ``is None`` test per call — no allocation.
    """

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _active
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label, cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
