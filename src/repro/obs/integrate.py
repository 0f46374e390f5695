"""Instrumentation glue between the tracer and the pipeline layers.

The hot layers stay almost tracer-agnostic: they call the two helpers
here (plus :func:`~repro.obs.tracer.trace_span` directly), and this
module owns the conventions — span naming, the analysis cache hit/miss
attributes, and the worker-to-parent record round trip used by
:mod:`repro.parallel`.

Span name/category conventions (one ``layer.verb`` namespace per layer):

==============  =========================================================
category        spans
==============  =========================================================
``cli``         ``cli.study``, ``cli.generate``, ``cli.analyze``, ...
``workloads``   ``workloads.generate``, with ``workloads.sample_jobs``,
                ``workloads.assemble`` and ``workloads.shadows`` nested
                in it
``ingest``      ``ingest.paths``, ``ingest.shard``, ``ingest.logs``
``store``       ``store.merge``
``parallel``    ``parallel.run`` plus adopted worker tracks (one export
                track per shard thread)
``analysis``    ``analysis.<entry point>`` with ``cache_hits`` /
                ``cache_misses`` attributes
``serve``       ``serve.request``, ``serve.execute``, ``serve.refresh``
                plus ``serve.cache_hit`` / ``serve.coalesced`` /
                ``serve.shed`` / ``serve.timeout`` instant events
``stream``      ``stream.poll``, ``stream.apply``, ``stream.follow``
``whatif``      ``whatif.sweep``, ``whatif.shard``, ``whatif.point``
``federation``  ``federation.query``, ``federation.member``,
                ``federation.remote``, ``federation.merge``,
                ``federation.compare``, ``catalog.verify``
==============  =========================================================
""" 

from __future__ import annotations

from repro.obs.spans import DEFAULT_CAPACITY
from repro.obs.tracer import _NOOP, Tracer, get_tracer, set_tracer


class _AnalysisSpan:
    """Span around one analysis entry point, annotated with the shared
    context's memo hit/miss deltas (how much of the work was cached)."""

    __slots__ = ("_span", "_context", "_hits0", "_misses0")

    def __init__(self, span, context):
        self._span = span
        self._context = context

    def __enter__(self):
        if self._context is not None:
            self._hits0, self._misses0 = self._context.cache_counts()
        self._span.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if self._context is not None:
            hits, misses = self._context.cache_counts()
            self._span.add(
                cache_hits=hits - self._hits0,
                cache_misses=misses - self._misses0,
            )
        return self._span.__exit__(exc_type, exc, tb)


def analysis_span(name: str, context=None):
    """Span for one analysis entry point; no-op when tracing is off.

    ``context`` is the :class:`~repro.analysis.context.AnalysisContext`
    the entry point runs against; when given, the span is annotated
    with the memo hits/misses the call incurred — a warm rerun shows
    up as all-hits, a cold run as the real mask/gather work.
    """
    tracer = get_tracer()
    if tracer is None:
        return _NOOP
    return _AnalysisSpan(tracer.span(f"analysis.{name}", "analysis"), context)


def capture_worker(fn, payload, capacity: int = DEFAULT_CAPACITY):
    """Run ``fn(payload)`` under a fresh tracer; return (value, records).

    The pool-worker side of the round trip: the records list is plain
    picklable data that travels back inside the shard result payload.
    The fresh tracer is installed as the worker's active tracer so the
    instrumentation points inside ``fn`` light up exactly as they would
    in the parent.
    """
    tracer = Tracer(capacity=capacity, process="repro-worker")
    previous = set_tracer(tracer)
    try:
        value = fn(payload)
    finally:
        set_tracer(previous)
    return value, tracer.records()


def adopt_worker_records(records, shard_id: int) -> None:
    """Parent side: splice one shard's captured records into the active
    tracer (no-op if tracing was disabled meanwhile)."""
    tracer = get_tracer()
    if tracer is not None and records:
        tracer.adopt(records, f"shard{shard_id}")
