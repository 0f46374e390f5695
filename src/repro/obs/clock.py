"""The one clock source for every latency and span timestamp.

Before this module existed the serving layer mixed ``time.perf_counter``
(engine latency histograms) with ad-hoc ``perf_counter`` deltas in the
socket front end, and any new subsystem was free to pick a third clock.
Spans and latency reservoirs must share a clock or cross-layer traces
lie: a request span timed on one clock cannot be compared against the
query histogram timed on another.

Everything times with :func:`perf_ns` (``time.perf_counter_ns``: the
highest-resolution monotonic clock the platform offers, integer
nanoseconds, immune to wall-clock steps). Because ``perf_counter`` has
an arbitrary per-process origin, spans that must line up *across*
processes (pooled sweep workers) are anchored once per
tracer with :func:`wall_anchor_ns` — the wall-clock epoch of this
process's perf origin — so ``anchor + perf_ns()`` is comparable across
workers to within wall-clock sync error, while every *duration* stays a
pure monotonic delta.
"""

from __future__ import annotations

import time

#: The shared monotonic clock: integer nanoseconds, arbitrary origin.
perf_ns = time.perf_counter_ns


def wall_anchor_ns() -> int:
    """Wall-clock epoch (ns) of this process's ``perf_ns`` origin.

    ``wall_anchor_ns() + perf_ns()`` approximates ``time.time_ns()`` but
    inherits perf_counter's monotonicity for everything measured after
    the anchor is taken. Taken once per :class:`~repro.obs.tracer.Tracer`
    so all of a tracer's spans share one anchor.
    """
    return time.time_ns() - time.perf_counter_ns()


def ns_to_ms(ns: int) -> float:
    """Nanoseconds to milliseconds (float)."""
    return ns / 1e6


def ns_to_s(ns: int) -> float:
    """Nanoseconds to seconds (float)."""
    return ns / 1e9
