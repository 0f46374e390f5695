"""The benchmark's own span tracer.

Spans wrap the benchmark's calls into the program's public functions, so
per-layer time is attributed without touching the program. Every
``span()`` block times itself whether tracing is on or off (the
end-to-end numbers use the same clock reads); only an enabled tracer
keeps a record. Records stay in memory and are written once, at exit.

A span's layer is the first dotted part of its name (``analysis.tuning``
belongs to ``analysis``). Self time is the span's duration minus the
part of its interval covered by its child spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Thread-aware span recorder; each thread keeps its own parent stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, **attrs) -> "_SpanScope":
        return _SpanScope(self, name, attrs)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = {}
        for sp in self.spans:
            covered = 0
            cur_start = cur_end = None
            for child in sorted(children.get(sp.id, ()), key=lambda c: c.start_ns):
                lo, hi = max(child.start_ns, sp.start_ns), min(child.end_ns, sp.end_ns)
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[sp.id] = (sp.end_ns - sp.start_ns - covered) / 1e9
        return out

    def durations(self, name: str, **match) -> list[float]:
        """Seconds of every span called ``name`` whose attrs include ``match``."""
        return [
            sp.seconds for sp in self.spans
            if sp.name == name and all(sp.attrs.get(k) == v for k, v in match.items())
        ]

    def layer_self_seconds(self) -> dict[str, float]:
        """Total self time per layer."""
        own = self.self_seconds()
        totals: dict[str, float] = {}
        for sp in self.spans:
            totals[sp.layer] = totals.get(sp.layer, 0.0) + own[sp.id]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"id": s.id, "parent": s.parent, "name": s.name,
                     "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs}
                    for s in self.spans
                ],
                fh,
            )


class _SpanScope:
    """Context manager for one span; ``seconds`` is valid after exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "start_ns", "seconds")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span = None
        self.seconds = 0.0

    def add(self, **attrs) -> None:
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        if tracer.enabled:
            stack = tracer._stack()
            self._span = Span(
                next(tracer._ids), stack[-1] if stack else None, self._name,
                0, attrs=self._attrs,
            )
            stack.append(self._span.id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.seconds = (end - self.start_ns) / 1e9
        span = self._span
        if span is not None:
            span.start_ns, span.end_ns = self.start_ns, end
            self._tracer._stack().pop()
            with self._tracer._lock:
                self._tracer.spans.append(span)
