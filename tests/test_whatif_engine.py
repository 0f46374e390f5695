"""The what-if point path's internals: job join, baseline memo, memory.

- **job join**: :func:`~repro.iosim.replay.join_jobs` is one sorted-index
  join shared by the facility replay and the what-if node counts. It
  must equal a dict built over the job table in order — unsorted
  tables, and duplicate job ids, whose last row wins — and a file row
  whose job is missing is a typed error naming the job id;
- **baseline memo**: a store's baseline is computed once per store
  generation, so a second point on the same store reuses it and an
  append recomputes it;
- **base-half memo**: each origin layer's base bandwidths are computed
  once per store generation, and a point that computes only its
  scenario half (skipping groups whose mechanism is unchanged, and per
  direction the rows whose stored time is 0.0 or -0.0) re-times every
  row byte for byte as the loop that computed both halves for every
  group and row;
- **tally reuse**: an outcome axis whose rows keep their stored layer
  and times takes the baseline's tally instead of recomputing it, and
  equals the recomputed one;
- **no per-point table copy**: a point allocates its four re-timed
  columns and bounded temporaries, not a copy of the 262-byte rows.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import AnalysisError
from repro.iosim.replay import FacilityReplay, job_windows, join_jobs
from repro.obs import Tracer, set_tracer
from repro.platforms import summit
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_INSYSTEM,
    LAYER_NAMES,
    LAYER_OTHER,
    LAYER_PFS,
    empty_files,
    empty_jobs,
)
from repro.units import GB
from repro.whatif import compute_point, engine, get_scenario, scenario_catalog, sweep
from repro.whatif.transfers import (
    SPEC_FIELDS,
    build_spec,
    layout_parallelism,
    nnodes_by_row,
)
from tests.conftest import NEUTRAL_POINTS, fresh_store

_IFACES = [int(i) for i in IOInterface]


def _jobs(ids, nnodes, starts, runtimes) -> np.ndarray:
    jobs = empty_jobs(len(ids))
    jobs["job_id"] = ids
    jobs["nnodes"] = nnodes
    jobs["start_time"] = starts
    jobs["runtime"] = runtimes
    return jobs


@st.composite
def job_tables(draw):
    """An unsorted job table over a small id range (duplicates likely),
    and file-row job ids that mostly hit it."""
    n = draw(st.integers(min_value=1, max_value=24))
    ids = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    nnodes = draw(st.lists(st.integers(1, 4096), min_size=n, max_size=n))
    starts = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    runtimes = draw(st.lists(st.floats(0, 1e5), min_size=n, max_size=n))
    queries = draw(st.lists(st.integers(-2, 17), max_size=40))
    return _jobs(ids, nnodes, starts, runtimes), np.array(queries, dtype=np.int64)


class TestJobJoin:
    @settings(max_examples=200, deadline=None)
    @given(job_tables())
    def test_join_equals_dict_join(self, case):
        jobs, queries = case
        # The reference: later rows overwrite earlier ones.
        last_row = {int(j): i for i, j in enumerate(jobs["job_id"])}
        pos, found = join_jobs(queries, jobs)
        assert found.tolist() == [int(q) in last_row for q in queries]
        assert pos[found].tolist() == [
            last_row[int(q)] for q in queries if int(q) in last_row
        ]

    @settings(max_examples=100, deadline=None)
    @given(job_tables())
    def test_nnodes_equals_dict_join(self, case):
        jobs, queries = case
        by_job = dict(zip(jobs["job_id"].tolist(), jobs["nnodes"].tolist()))
        expected = [float(by_job.get(int(q), 1)) for q in queries]
        assert nnodes_by_row(queries, jobs).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(job_tables(), st.data())
    def test_windows_equal_dict_join(self, case, data):
        jobs, _ = case
        present = sorted(set(jobs["job_id"].tolist()))
        n = data.draw(st.integers(0, 30))
        files = empty_files(n)
        files["job_id"] = data.draw(
            st.lists(st.sampled_from(present), min_size=n, max_size=n)
        )
        files["interface"] = data.draw(
            st.lists(st.sampled_from(_IFACES), min_size=n, max_size=n)
        )
        store = RecordStore("summit", files, jobs)
        start_by_job = dict(
            zip(jobs["job_id"].tolist(), jobs["start_time"].tolist())
        )
        runtime_by_job = dict(
            zip(jobs["job_id"].tolist(), jobs["runtime"].tolist())
        )
        unique = files[files["interface"] != int(IOInterface.MPIIO)]
        starts, runtimes = job_windows(store)
        assert starts.tolist() == [
            start_by_job[int(j)] for j in unique["job_id"]
        ]
        assert runtimes.tolist() == [
            max(runtime_by_job[int(j)], 1.0) for j in unique["job_id"]
        ]

    def test_empty_job_table_finds_nothing(self):
        pos, found = join_jobs(np.array([1, 2]), empty_jobs(0))
        assert not found.any() and len(pos) == 2

    def test_missing_job_is_typed_and_named(self):
        files = empty_files(3)
        files["job_id"] = [1, 2, 77]
        files["interface"] = int(IOInterface.POSIX)
        files["bytes_written"] = 1 << 20
        store = RecordStore("summit", files, _jobs([2, 1], 1, 0.0, 60.0))
        with pytest.raises(AnalysisError, match="job id 77"):
            FacilityReplay(store, summit()).demands()
        with pytest.raises(AnalysisError, match="job id 77"):
            compute_point(fresh_store(store), "identity")

    def test_missing_job_on_a_shadow_row_is_ignored(self):
        """Only unique-accounting rows enter the replay, as before."""
        files = empty_files(2)
        files["job_id"] = [1, 77]
        files["interface"] = [int(IOInterface.POSIX), int(IOInterface.MPIIO)]
        store = RecordStore("summit", files, _jobs([1], 1, 0.0, 60.0))
        assert FacilityReplay(store, summit()).demands()


@pytest.fixture(scope="module")
def point_store():
    """Summit at scale 2e-4, seed 7 (the what-if golden's store)."""
    return repro.generate_store("summit", scale=2e-4, seed=7)


def _baseline_spans(fn) -> int:
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        fn()
    finally:
        set_tracer(previous)
    return sum(1 for r in tracer.records() if r.name == "whatif.baseline")


class TestBaselineMemo:
    def test_second_point_is_a_memo_hit(self, point_store):
        store = fresh_store(point_store)
        assert _baseline_spans(lambda: compute_point(store, "identity")) == 1
        ctx = store.analysis()
        hits, misses = ctx.cache_counts()
        assert _baseline_spans(lambda: compute_point(store, "ost_fault")) == 0
        assert _baseline_spans(
            lambda: sweep(store, "stripe", [{"factor": 2.0}, {"factor": 4.0}])
        ) == 0
        assert ctx.cache_counts()[0] > hits
        assert ctx.cache_info()["whatif.baseline"] == 1

    def test_append_recomputes_the_baseline(self, point_store):
        store = fresh_store(point_store)
        before = compute_point(store, "identity")
        counted = store.analysis().idx(
            "unique", ("layer", 0), ("pos", "bytes_read")
        )[:64]
        store.append(store.files[counted].copy())
        spans = _baseline_spans(
            lambda: compute_point(store, "identity")
        )
        after = compute_point(store, "identity")
        assert spans == 1
        assert after.outcome == after.baseline
        assert sum(m.files for m in after.baseline) > sum(
            m.files for m in before.baseline
        )
        # The recomputed baseline is a cold store's, bit for bit.
        assert after == compute_point(fresh_store(store), "identity")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPointAllocation:
    """A point costs its re-timed columns, not a copy of the table.

    The first point on a store also fills the context's column cache
    (twelve scalar columns, about a third of the row width), which
    every later point and analysis on the store reads; a point that
    copied the 262-byte table, as the row path did, reads over 2x.
    """

    @pytest.mark.parametrize("scenario", ["stripe", "bb_offload"])
    def test_warm_point_peak_under_half_the_table(self, point_store, scenario):
        store = fresh_store(point_store)
        compute_point(store, "identity")
        peak = _traced_peak(lambda: compute_point(store, scenario))
        assert peak < 0.5 * store.files.nbytes, peak / store.files.nbytes

    def test_cold_point_peak_under_the_table(self, point_store):
        store = fresh_store(point_store)
        peak = _traced_peak(lambda: compute_point(store, "bb_offload"))
        assert peak < 1.0 * store.files.nbytes, peak / store.files.nbytes


def _reference_retime(store: RecordStore, plan) -> tuple[dict, int]:
    """The re-timing loop that computes both halves for every group.

    Reads the store's own table, not its analysis context, so it shares
    no memo with the path under test.
    """
    files = store.files
    out = {name: files[name].copy() for name in engine.RETIMED}
    moved = 0
    if plan.relocate_min_bytes is not None:
        move = (
            (files["layer"] == LAYER_PFS)
            & (files["bytes_read"] == 0)
            & (files["bytes_written"] >= plan.relocate_min_bytes)
        )
        moved = int(move.sum())
        out["layer"][move] = LAYER_INSYSTEM
    nnodes = nnodes_by_row(files["job_id"], store.jobs)
    sizes = (files["bytes_read"] + files["bytes_written"]).astype(np.float64)
    fields = {name: files[name] for name in SPEC_FIELDS}
    rng = np.random.default_rng(0)
    for oc in (LAYER_PFS, LAYER_INSYSTEM):
        oidx = np.flatnonzero(files["layer"] == oc)
        dest = out["layer"][oidx]
        for nc in (LAYER_PFS, LAYER_INSYSTEM):
            gidx = oidx[dest == nc]
            base_layer = plan.base_machine.layers[LAYER_NAMES[oc]]
            scn_layer = plan.machine.layers[LAYER_NAMES[nc]]
            cratio = engine._contention_ratio(
                plan, base_layer.kind.value, scn_layer.kind.value
            )
            factor = plan.parallelism_factor(LAYER_NAMES[nc])
            gi = files["interface"][gidx]
            for code in np.unique(gi):
                interface = IOInterface(int(code))
                idx = gidx[gi == code]
                rows = {name: values[idx] for name, values in fields.items()}
                rn = nnodes[idx]
                base_par = layout_parallelism(
                    store.platform, oc, plan.base_machine, sizes[idx], rn
                )
                scn_par = layout_parallelism(
                    store.platform, nc, plan.machine, sizes[idx], rn,
                    factor=factor,
                )
                for direction in ("read", "write"):
                    spec = build_spec(rows, rn, base_par, direction)
                    bw_base = plan.base_perf.sample_bandwidth(
                        base_layer, interface, direction, spec, rng
                    )
                    bw_scn = plan.perf.sample_bandwidth(
                        scn_layer, interface, direction,
                        replace(spec, file_parallelism=scn_par), rng,
                    )
                    time_col = f"{direction}_time"
                    out[time_col][idx] = (
                        files[time_col][idx] * (bw_base / bw_scn) * cratio
                    )
            out["meta_time"][gidx] = files["meta_time"][gidx] * (
                scn_layer.base_latency / base_layer.base_latency
            )
    return out, moved


def _assert_retimed_equal(store, plan):
    expected, expected_moved = _reference_retime(store, plan)
    got, moved = engine.retime_columns(store, plan)
    assert moved == expected_moved
    for name in engine.RETIMED:
        assert got[name].tobytes() == expected[name].tobytes(), name
    return moved


@st.composite
def retime_stores(draw):
    """A small store over PFS, in-system and other rows and every
    interface, where one of the two modeled layers may be empty and
    times may be zero, negative zero or NaN whatever the bytes."""
    platform = draw(st.sampled_from(["summit", "cori"]))
    layers = draw(st.sampled_from([
        (LAYER_PFS,), (LAYER_INSYSTEM,), (LAYER_PFS, LAYER_INSYSTEM),
        (LAYER_PFS, LAYER_INSYSTEM, LAYER_OTHER),
    ]))
    n = draw(st.integers(0, 40))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    files = empty_files(n)
    files["job_id"] = column(st.integers(0, 5))
    files["layer"] = column(st.sampled_from(layers))
    files["interface"] = column(st.sampled_from(_IFACES))
    files["rank"] = column(st.sampled_from([-1, 0, 3]))
    files["nprocs"] = column(st.integers(1, 8192))
    sizes = st.one_of(st.just(0), st.integers(1, 4 * GB), st.integers(0, 64 * GB))
    files["bytes_read"] = column(sizes)
    files["bytes_written"] = column(sizes)
    files["reads"] = column(st.integers(0, 1 << 20))
    files["writes"] = column(st.integers(0, 1 << 20))
    # Zero, negative-zero and NaN times, drawn independently of the
    # bytes: rows that moved bytes in no time, and rows that took time
    # to move no bytes.
    times = st.one_of(
        st.sampled_from([0.0, -0.0, float("nan")]),
        st.floats(0.0, 1e5, allow_nan=False),
    )
    for name in ("read_time", "write_time", "meta_time"):
        files[name] = column(times)
    jobs = _jobs(range(5), draw(st.lists(st.integers(1, 4096), min_size=5, max_size=5)),
                 0.0, 3600.0)
    return RecordStore(platform, files, jobs)


def _random_params(draw, scenario) -> dict:
    params = {}
    for spec in scenario.params:
        if spec.name == "enabled":
            params[spec.name] = draw(st.sampled_from([0, 1]))
        elif spec.name == "min_gb":
            params[spec.name] = draw(st.floats(0.0, 8.0))
        else:
            params[spec.name] = draw(st.floats(spec.minimum, spec.maximum))
    return params


class TestBaseHalfDifferential:
    """The scenario-half path against the loop that computes both."""

    @settings(max_examples=150, deadline=None)
    @given(retime_stores(), st.sampled_from(sorted(scenario_catalog())),
           st.booleans(), st.sampled_from([3, 7, engine._CHUNK]), st.data())
    def test_equals_both_halves_loop(self, store, name, neutral, chunk, data):
        scenario = get_scenario(name)
        params = (NEUTRAL_POINTS[name] if neutral
                  else _random_params(data.draw, scenario))
        plan = scenario.plan(store.platform, params)
        with mock.patch.object(engine, "_CHUNK", chunk):
            _assert_retimed_equal(store, plan)
            # The second point reads the memoized base half.
            _assert_retimed_equal(store, plan)

    @pytest.mark.parametrize("name", sorted(scenario_catalog()))
    def test_generated_stores_every_scenario(self, point_store, cori_store_small, name):
        for source in (point_store, cori_store_small):
            store = fresh_store(source)
            for params in (None, NEUTRAL_POINTS[name]):
                _assert_retimed_equal(store, get_scenario(name).plan(store.platform, params))

    @pytest.mark.parametrize("name", sorted(scenario_catalog()))
    def test_rows_with_no_time_or_no_bytes(self, name):
        """Each direction skips exactly the rows whose stored time is 0.0
        or -0.0; a NaN time and a time over zero bytes are re-timed."""
        cases = [  # (bytes, time)
            (1 << 30, 0.0), (1 << 30, -0.0), (1 << 30, float("nan")),
            (0, 12.5), (0, 0.0), (0, -0.0), (1 << 20, 3.0),
        ]
        n = 3 * len(cases)
        files = empty_files(n)
        files["job_id"] = np.arange(n) % 3
        files["layer"] = np.repeat([LAYER_PFS, LAYER_INSYSTEM, LAYER_OTHER], len(cases))
        files["interface"] = np.array(_IFACES)[np.arange(n) % len(_IFACES)]
        files["rank"] = np.where(np.arange(n) % 2, -1, 0)
        files["nprocs"] = 64
        nbytes, times = (np.array(c * 3) for c in zip(*cases))
        files["bytes_read"], files["read_time"] = nbytes, times
        # The write side sees the same rows the other way round.
        files["bytes_written"], files["write_time"] = nbytes[::-1], times[::-1]
        files["reads"] = files["writes"] = 16
        files["meta_time"] = times
        for platform in ("summit", "cori"):
            store = RecordStore(platform, files.copy(), _jobs(range(3), 4, 0.0, 60.0))
            scenario = get_scenario(name)
            for params in (None, NEUTRAL_POINTS[name]):
                _assert_retimed_equal(store, scenario.plan(platform, params))
            if name == "bb_offload":
                plan = scenario.plan(platform, {"min_gb": 0.0})
                assert _assert_retimed_equal(store, plan) > 0

    def test_bb_offload_moving_only_some_rows(self, point_store):
        store = fresh_store(point_store)
        files = store.files
        eligible = int(np.sum(
            (files["layer"] == LAYER_PFS) & (files["bytes_read"] == 0)
            & (files["bytes_written"] > 0)
        ))
        plan = get_scenario("bb_offload").plan("summit", {"min_gb": 0.01})
        moved = _assert_retimed_equal(store, plan)
        assert 0 < moved < eligible


class TestBaseHalfMemo:
    def test_sweep_leaves_one_entry_per_origin_layer(self, point_store):
        store = fresh_store(point_store)
        ctx = store.analysis()
        sweep(store, "stripe", [{"factor": 2.0}, {"factor": 4.0}])
        assert ctx.cache_info()["whatif.base_half"] == 2
        compute_point(store, "stripe", {"factor": 8.0})
        hits, misses = ctx.cache_counts()
        compute_point(store, "stripe", {"factor": 0.5})
        # Every memo the point reads is warm, base halves included.
        assert ctx.cache_counts()[1] == misses
        assert ctx.cache_counts()[0] > hits
        for name in scenario_catalog():
            compute_point(store, name)
        # Every built-in scenario shares the platform's base pair.
        assert ctx.cache_info()["whatif.base_half"] == 2

    def test_a_different_base_pair_misses(self, point_store):
        store = fresh_store(point_store)
        compute_point(store, "identity")
        plan = get_scenario("identity").plan("summit")
        plan = replace(plan, base_perf=replace(plan.base_perf, job_share_fraction=0.01))
        _assert_retimed_equal(store, plan)
        assert store.analysis().cache_info()["whatif.base_half"] == 4

    def test_append_drops_the_base_halves(self, point_store):
        store = fresh_store(point_store)
        compute_point(store, "stripe")
        assert store.analysis().cache_info()["whatif.base_half"] == 2
        store.append(store.files[:64].copy())
        assert "whatif.base_half" not in store.analysis().cache_info()
        after = compute_point(store, "stripe")
        assert store.analysis().cache_info()["whatif.base_half"] == 2
        assert after == compute_point(fresh_store(store), "stripe")


def _tallied_axes(store, scenario, params=None):
    """The report and the outcome axes whose tallies a point computed."""
    with mock.patch.object(engine, "_tally", wraps=engine._tally) as spy:
        report = compute_point(store, scenario, params)
    return report, {(call.args[1][0], call.args[1][2]) for call in spy.call_args_list}


def _axes(*layers):
    return {(layer, d) for layer in layers for d in ("read", "write")}


class TestTallyReuse:
    """An axis whose rows all keep their stored layer and times reuses
    the baseline's tally, and the report is the one a recompute gives."""

    #: Per scenario (default point), the layers whose rows it leaves as stored.
    KEPT = {
        "identity": ("pfs", "insystem"),
        "bb_drain": ("pfs",),
        "ost_fault": ("insystem",),
        "stripe": ("insystem",),
        "contention": (),
        "bb_offload": (),  # it moves rows, so every axis is recomputed
    }

    def _check(self, source, name, params, kept):
        store = fresh_store(source)
        compute_point(store, "identity")  # the baseline, tallied once
        report, tallied = _tallied_axes(store, name, params)
        assert tallied == _axes("pfs", "insystem") - _axes(*kept)
        assert report == compute_point(fresh_store(source), name, params)
        # The reused tallies are the ones the re-timed columns give.
        plan = get_scenario(name).plan(store.platform, params)
        columns, moved = engine.retime_columns(store, plan)
        layer = columns["layer"] if moved else None
        assert [(m.files, m.seconds, m.median_bw) for m in report.outcome] == [
            engine._tally(store, axis, columns, layer) for axis in engine._METRIC_AXES
        ]

    @pytest.mark.parametrize("name", sorted(KEPT))
    def test_default_points(self, point_store, cori_store_small, name):
        for source in (point_store, cori_store_small):
            self._check(source, name, None, self.KEPT[name])

    @pytest.mark.parametrize("name", sorted(scenario_catalog()))
    def test_neutral_points_reuse_every_axis(self, point_store, name):
        self._check(point_store, name, NEUTRAL_POINTS[name], ("pfs", "insystem"))

    def test_untouched_axes_compute_no_median(self, point_store):
        """``point_store`` holds PFS rows only: identity and bb_drain
        leave them as stored, contention and stripe re-time them."""
        store = fresh_store(point_store)
        compute_point(store, "identity")
        medians = {}
        for name in ("identity", "bb_drain", "contention", "stripe"):
            with mock.patch.object(np, "nanmedian", wraps=np.nanmedian) as spy:
                compute_point(store, name)
            medians[name] = spy.call_count
        assert medians == {"identity": 0, "bb_drain": 0, "contention": 2, "stripe": 2}
