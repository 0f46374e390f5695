"""The span-tracing subsystem: tracer semantics, export formats,
zero-cost-when-disabled guarantees, and the cross-layer integration
points (generator shards, analysis entry points, the serving engine,
and the CLI ``--trace`` flag)."""

from __future__ import annotations

import json
import pickle
import sys
import time

import pytest

from repro.analysis import interface_usage, layer_volumes
from repro.obs import (
    SpanRecord,
    SpanStore,
    Tracer,
    analysis_span,
    get_tracer,
    set_tracer,
    to_chrome,
    trace_event,
    trace_span,
    traced,
    write_trace,
)
from repro.obs.clock import ns_to_ms, ns_to_s, perf_ns, wall_anchor_ns
from repro.obs.export import chrome_events, ndjson_lines
from repro.obs.spans import PHASE_EVENT, PHASE_SPAN
from repro.obs.tracer import _NOOP
from tests.conftest import fresh_store


@pytest.fixture()
def tracer():
    """An installed tracer, always uninstalled afterwards."""
    t = Tracer()
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    assert get_tracer() is None, "a test leaked an active tracer"


def _instrumented_pass(store):
    """A cold-context Table 3 + Table 6 pass through the production
    instrumentation idiom: two analysis spans and one inner span."""
    store = fresh_store(store)
    ctx = store.analysis()
    with analysis_span("table3", ctx):
        layer_volumes(store)
    with analysis_span("table6", ctx):
        with trace_span("analysis.inner", "analysis") as sp:
            interface_usage(store)
            if sp is not None:
                sp.add(rows=len(store.files))


# -- tracer semantics ---------------------------------------------------------
class TestTracer:
    def test_span_records_name_cat_duration(self, tracer):
        with trace_span("unit.work", "unit") as sp:
            sp.add(items=3)
        (rec,) = tracer.records()
        assert rec.name == "unit.work"
        assert rec.cat == "unit"
        assert rec.phase == PHASE_SPAN
        assert rec.dur_ns >= 0
        assert rec.args == {"items": 3}

    def test_nesting_depth_is_explicit(self, tracer):
        with trace_span("outer"):
            with trace_span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Children finish first, but start inside the parent window.
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.start_ns <= inner.start_ns
        assert inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns

    def test_exception_marks_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with trace_span("unit.fails"):
                raise ValueError("boom")
        (rec,) = tracer.records()
        assert rec.args["error"] == "ValueError: boom"

    def test_event_is_instant(self, tracer):
        trace_event("unit.tick", "unit", n=1)
        (rec,) = tracer.records()
        assert rec.phase == PHASE_EVENT
        assert rec.dur_ns == 0
        assert rec.args == {"n": 1}

    def test_traced_decorator(self, tracer):
        @traced("unit.fn", "unit")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert [r.name for r in tracer.records()] == ["unit.fn"]

    def test_record_bypasses_stack(self, tracer):
        start = perf_ns()
        tracer.record("async.op", "serve", start, 1234, ok=True)
        (rec,) = tracer.records()
        assert rec.dur_ns == 1234
        assert rec.depth == 0
        assert rec.start_ns == tracer.anchor_ns + start

    def test_wall_anchored_timestamps(self, tracer):
        before = time.time_ns()
        with trace_span("unit.now"):
            pass
        after = time.time_ns()
        (rec,) = tracer.records()
        assert before <= rec.start_ns <= after

    def test_set_tracer_returns_previous(self):
        a, b = Tracer(), Tracer()
        assert set_tracer(a) is None
        assert set_tracer(b) is a
        assert set_tracer(None) is b


class TestSpanStore:
    def test_ring_is_bounded_newest_wins(self):
        store = SpanStore(4)
        for i in range(10):
            store.add(SpanRecord(f"s{i}", "", 1, i, 1, 0, PHASE_SPAN, None))
        assert len(store) == 4
        assert store.total == 10
        assert store.dropped == 6
        assert [r.name for r in store.records()] == ["s6", "s7", "s8", "s9"]

    def test_records_are_picklable(self):
        rec = SpanRecord("a.b", "a", 1, 100, 50, 2, PHASE_SPAN, {"k": 1})
        clone = pickle.loads(pickle.dumps(rec))
        assert (clone.name, clone.tid, clone.start_ns, clone.dur_ns,
                clone.depth, clone.args) == ("a.b", 1, 100, 50, 2, {"k": 1})

    def test_clock_converters(self):
        assert ns_to_s(2_000_000_000) == 2.0
        assert ns_to_ms(1_500_000) == 1.5
        # The anchor is "wall time of perf_counter zero": adding a fresh
        # perf reading must land near the current wall clock.
        now = wall_anchor_ns() + perf_ns()
        assert abs(now - time.time_ns()) < 5_000_000_000

    def test_total_counts_every_span_past_the_ring(self, study):
        """Seven instrumented cold passes over the reference summit store
        (three spans each) plus 200k tight-loop spans, which overflow
        the ring: ``total`` still counts every one."""
        store = study.store("summit")  # generated before tracing starts
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            for _ in range(7):
                _instrumented_pass(store)
            for _ in range(200_000):
                with trace_span("unit.op", "unit") as sp:
                    if sp is not None:
                        sp.add(i=1)
        finally:
            set_tracer(previous)
        assert tracer.store.total == 7 * 3 + 200_000


# -- disabled-path guarantees -------------------------------------------------
class TestDisabled:
    def test_trace_span_returns_shared_noop(self):
        assert get_tracer() is None
        assert trace_span("x", "y") is _NOOP
        assert trace_span("other") is _NOOP
        with trace_span("x") as sp:
            assert sp is None

    def test_analysis_span_disabled_is_noop(self):
        assert analysis_span("table2", None) is _NOOP

    def test_disabled_hot_path_allocates_nothing(self):
        """The analysis/ingest hot-path idiom must be allocation-free
        when tracing is off: sys.getallocatedblocks must not grow over
        a warm loop of span entries, attribute guards, and events."""

        def hot_iteration():
            with trace_span("analysis.table3", "analysis") as sp:
                if sp is not None:
                    sp.add(rows=1)
            with analysis_span("table3", None):
                pass
            trace_event("serve.cache_hit", "serve")

        for _ in range(256):  # warm up: caches, bytecode specialization
            hot_iteration()
        before = sys.getallocatedblocks()
        for _ in range(2048):
            hot_iteration()
        grown = sys.getallocatedblocks() - before
        # Interpreter internals may retain a handful of blocks; any
        # per-iteration allocation would show up as >= 2048.
        assert grown <= 8, f"disabled tracing allocated {grown} blocks"

    def test_disabled_span_costs_under_2us(self):
        n = 200_000
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with trace_span("unit.op", "unit") as sp:
                if sp is not None:
                    sp.add(i=1)
        assert (time.perf_counter_ns() - t0) / n < 2_000


# -- export -------------------------------------------------------------------
class TestExport:
    def _populated(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with trace_span("outer", "unit") as sp:
                sp.add(k="v")
                with trace_span("inner", "unit"):
                    pass
            trace_event("tick", "unit")
        finally:
            set_tracer(previous)
        return tracer

    def test_chrome_events_required_keys(self):
        tracer = self._populated()
        events = chrome_events(tracer)
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(spans) == 2 and len(instants) == 1
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        for e in spans:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                              "args"}
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
        for e in instants:
            assert e["s"] == "t" and "dur" not in e

    def test_chrome_document_is_json_round_trippable(self, tmp_path):
        tracer = self._populated()
        path = tmp_path / "trace.json"
        write_trace(str(path), tracer)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs"
        assert doc["otherData"]["spans"] == 3
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"outer", "inner", "tick"} <= names

    def test_ndjson_by_suffix(self, tmp_path):
        tracer = self._populated()
        path = tmp_path / "trace.ndjson"
        write_trace(str(path), tracer)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert {r["name"] for r in rows} == {"outer", "inner", "tick"}
        for r in rows:
            assert set(r) == {"name", "cat", "phase", "thread", "tid",
                              "depth", "start_ns", "dur_ns", "args"}

    def test_ndjson_document_order(self):
        tracer = self._populated()
        rows = [json.loads(line) for line in ndjson_lines(tracer)]
        # Document order: outer (starts first, longer) before inner.
        assert [r["name"] for r in rows[:2]] == ["outer", "inner"]

    def test_numpy_attrs_are_jsonable(self):
        import numpy as np

        tracer = Tracer()
        with tracer.span("np", "unit", rows=np.int64(7), frac=np.float64(0.5)):
            pass
        doc = to_chrome(tracer)
        json.dumps(doc)  # must not raise
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["args"] == {"rows": 7, "frac": 0.5}


# -- pipeline integration -----------------------------------------------------
class TestPipelineSpans:
    def test_serial_generation_spans(self, tracer):
        from repro.api import generate_store

        generate_store("summit", scale=2e-4, seed=7)
        names = {r.name for r in tracer.records()}
        assert {"workloads.generate", "workloads.sample_jobs",
                "workloads.assemble", "workloads.shadows"} <= names

    @pytest.mark.parallel
    def test_pooled_sweep_adopts_worker_spans(self):
        from repro.api import generate_store
        from repro.whatif import sweep

        store = generate_store("summit", scale=1e-4, seed=7)
        points = [{"factor": f} for f in (0.5, 2.0, 4.0, 8.0)]
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            traced = sweep(store, "stripe", points, jobs=2)
        finally:
            set_tracer(previous)
        untraced = sweep(store, "stripe", points, jobs=2)

        names = {r.name for r in tracer.records()}
        assert {"whatif.sweep", "parallel.run", "whatif.shard"} <= names

        # Every shard (one per point) surfaces as its own named track,
        # and worker spans keep their nesting depth through the pickle
        # round trip.
        tracks = set(tracer.thread_names.values())
        for shard in range(4):
            assert any(t.startswith(f"shard{shard}:") for t in tracks)
        shard_spans = [r for r in tracer.records()
                       if r.name == "whatif.shard"]
        assert len(shard_spans) == 4
        assert all(r.depth == 0 for r in shard_spans)
        point_spans = [r for r in tracer.records()
                       if r.name == "whatif.point"]
        assert len(point_spans) == 4
        assert all(r.depth == 1 for r in point_spans)

        # Tracing must not perturb the deterministic sweep.
        assert traced == untraced

    def test_ingest_spans(self, tracer, tmp_path, cori_machine):
        from repro.darshan.format import write_log
        from repro.instrument import LogMaterializer
        from repro.store.ingest import ingest_log_paths
        from repro.workloads.generator import (
            GeneratorConfig,
            WorkloadGenerator,
        )

        gen = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5))
        store = gen.generate(7, shadows=True)
        mat = LogMaterializer(cori_machine, store)
        paths = []
        for i, log in enumerate(mat.materialize_many(4)):
            path = tmp_path / f"log{i:03d}.darshan"
            write_log(log, str(path))
            paths.append(str(path))
        ingest_log_paths(
            paths, "cori", cori_machine.mount_table(), domains=store.domains
        )
        names = {r.name for r in tracer.records()}
        assert {"ingest.paths", "ingest.logs"} <= names

    def test_analysis_span_cache_attrs(self, tracer):
        from repro.api import generate_store, run_query

        # A private store: the session fixtures' shared analysis
        # contexts are warm by the time this test runs, and the cold
        # pass below needs genuinely cold memos.
        store = generate_store("summit", scale=2e-4, seed=7)
        run_query(store, "table3")
        run_query(store, "table3")
        spans = [r for r in tracer.records() if r.name == "analysis.table3"]
        assert len(spans) == 2
        cold, warm = spans
        assert cold.args["cache_misses"] > 0
        assert warm.args["cache_hits"] > 0
        assert warm.args["cache_misses"] == 0

    def test_engine_spans_and_events(self, tracer, summit_store_small):
        from repro.serve import QueryEngine

        with QueryEngine(summit_store_small, max_workers=2) as engine:
            engine.query("table2")
            engine.query("table2")  # second hit comes from the cache
        records = tracer.records()
        executes = [r for r in records if r.name == "serve.execute"]
        assert len(executes) == 1
        assert executes[0].args["query"] == "table2"
        hits = [r for r in records if r.name == "serve.cache_hit"]
        assert len(hits) == 1 and hits[0].phase == PHASE_EVENT
        # The engine span nests the per-entry-point analysis span.
        analysis = [r for r in records if r.name == "analysis.table2"]
        assert len(analysis) == 1
        assert analysis[0].depth == executes[0].depth + 1

    def test_server_records_request_spans(self, tracer, summit_store_small):
        from repro.serve import QueryEngine
        from repro.serve.client import ServeClient
        from repro.serve.server import BackgroundServer

        with QueryEngine(summit_store_small, max_workers=2) as engine:
            with BackgroundServer(engine) as server:
                with ServeClient(port=server.port) as client:
                    result = client.query("table2")
        assert result["kind"] == "table"
        requests = [r for r in tracer.records() if r.name == "serve.request"]
        assert len(requests) == 1
        assert requests[0].args == {"query": "table2", "ok": True}


# -- CLI ----------------------------------------------------------------------
class TestCliTrace:
    def _load(self, path):
        doc = json.loads(path.read_text())
        assert get_tracer() is None, "--trace must uninstall its tracer"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for e in spans:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        return doc, spans

    def test_study_trace_covers_generate_and_every_entry_point(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "study.json"
        assert main(["study", "--platform", "summit", "--scale", "2e-4",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        _, spans = self._load(path)
        names = {e["name"] for e in spans}
        assert "cli.study" in names
        assert "workloads.generate" in names
        expected = {f"analysis.{n}" for n in
                    ("table2", "table3", "table4", "table5", "table6",
                     "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9", "fig10", "fig11")}
        assert expected <= names

    @pytest.mark.parallel
    def test_pooled_sweep_trace_covers_all_shards(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "year.npz"
        path = tmp_path / "sweep.json"
        assert main(["generate", "--platform", "summit", "--scale", "1e-4",
                     "--out", str(store)]) == 0
        assert main(["whatif", str(store), "--scenario", "stripe",
                     "--sweep", '{"factor": [0.5, 2, 4]}', "--jobs", "2",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        doc, spans = self._load(path)
        tracks = {e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        for shard in range(3):
            assert any(t.startswith(f"shard{shard}:") for t in tracks)
        names = {e["name"] for e in spans}
        assert {"cli.whatif", "whatif.sweep", "parallel.run",
                "whatif.shard"} <= names
        # Worker spans keep parent/child nesting: each shard's point
        # sits inside its shard span on the same track.
        by_track = {}
        for e in spans:
            by_track.setdefault(e["tid"], []).append(e)
        shard_tids = [tid for tid, name_ in
                      ((e["tid"], e["args"]["name"]) for e in doc["traceEvents"]
                       if e["ph"] == "M" and e["name"] == "thread_name")
                      if name_.startswith("shard")]
        assert len(shard_tids) == 3
        for tid in shard_tids:
            track = {e["name"]: e for e in by_track[tid]}
            shard, point = track["whatif.shard"], track["whatif.point"]
            assert shard["ts"] <= point["ts"]
            assert (point["ts"] + point["dur"]
                    <= shard["ts"] + shard["dur"] + 1e-3)

    def test_trace_failure_still_writes(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "fail.json"
        assert main(["analyze", str(tmp_path / "missing.npz"),
                     "--exhibit", "table3", "--trace", str(path)]) == 1
        assert "\nanalyze: " in capsys.readouterr().err
        doc, spans = self._load(path)
        (root,) = [e for e in spans if e["name"] == "cli.analyze"]
        assert "error" in root["args"]
