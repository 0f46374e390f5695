"""The what-if subsystem's acceptance bar.

Three properties anchor the digital twin:

- **zero check** (differential): every entry point — ``compute_point``,
  ``materialize``, ``sweep``, the serve registry, the CLI — produces a
  result *bit-identical* to the baseline under the identity scenario and
  under every scenario's neutral parameter point;
- **cache semantics**: sweep points are cached per (scenario, params,
  store generation) through the serve engine, so repeated identical
  sweeps on an unchanged store are cache hits and any append
  invalidates them (property-tested with hypothesis);
- **fan-out invariance**: a sweep's results are byte-identical for any
  worker count (``parallel``-marked differential suite).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.report import HEADERS
from repro.api import run_query
from repro.errors import WhatIfError
from repro.serve.engine import QueryEngine
from repro.serve.registry import default_registry, serialize_result
from repro.store.io import save_store
from repro.whatif import (
    compute_point,
    get_scenario,
    materialize,
    scenario_catalog,
    sweep,
)

#: Every scenario's neutral point: parameters under which the plan must
#: change nothing (the "calibrated instrument reads zero" gate).
NEUTRAL_POINTS = {
    "identity": {},
    "stripe": {"factor": 1.0},
    "bb_offload": {"enabled": 0},
    "ost_fault": {"servers_offline": 0.0, "rebuild_overhead": 0.0},
    "bb_drain": {"servers_offline": 0.0, "rebuild_overhead": 0.0},
    "contention": {"factor": 1.0},
}


@pytest.fixture(scope="module")
def wstore(summit_store_small):
    """A thinned summit store: every 8th row, fast enough to replay often."""
    mask = np.zeros(len(summit_store_small.files), dtype=bool)
    mask[::8] = True
    return summit_store_small.filter(mask)


class TestCatalog:
    def test_covers_issue_scenarios(self):
        names = set(scenario_catalog())
        assert {"identity", "stripe", "bb_offload", "ost_fault",
                "bb_drain", "contention"} <= names
        # Keep NEUTRAL_POINTS exhaustive as scenarios are added.
        assert names == set(NEUTRAL_POINTS)

    def test_unknown_scenario_is_typed(self):
        with pytest.raises(WhatIfError, match="unknown scenario"):
            get_scenario("warp-drive")

    def test_unknown_param_rejected(self, wstore):
        with pytest.raises(WhatIfError, match="unknown parameter"):
            compute_point(wstore, "stripe", {"stripes": 4})

    def test_out_of_bounds_param_rejected(self, wstore):
        with pytest.raises(WhatIfError, match="must be <="):
            compute_point(wstore, "stripe", {"factor": 1000.0})
        with pytest.raises(WhatIfError, match="must be >="):
            compute_point(wstore, "ost_fault", {"servers_offline": -0.1})

    def test_non_numeric_param_rejected(self, wstore):
        with pytest.raises(WhatIfError, match="must be a number"):
            compute_point(wstore, "stripe", {"factor": "two"})
        with pytest.raises(WhatIfError, match="must be a number"):
            compute_point(wstore, "stripe", {"factor": True})

    def test_every_scenario_registered_for_serving(self):
        registry = default_registry()
        for name, scenario in scenario_catalog().items():
            spec = registry[f"whatif_{name}"]
            assert spec.kind == "table"
            assert spec.header_key == "whatif"
            assert spec.param_names == scenario.param_names

    def test_neutral_plans_are_identity(self):
        for name, params in NEUTRAL_POINTS.items():
            plan = get_scenario(name).plan("summit", params)
            assert plan.is_identity, name


class TestIdentityDifferential:
    """The zero check: identity/neutral points are bit-identical."""

    def test_materialize_identity_bit_identical(self, wstore):
        twin = materialize(wstore, "identity")
        assert twin.files.tobytes() == wstore.files.tobytes()
        assert twin.jobs.tobytes() == wstore.jobs.tobytes()

    @pytest.mark.parametrize("name", sorted(NEUTRAL_POINTS))
    def test_neutral_point_bit_identical(self, wstore, name):
        twin = materialize(wstore, name, NEUTRAL_POINTS[name])
        assert twin.files.tobytes() == wstore.files.tobytes()

    def test_compute_point_identity_outcome_equals_baseline(self, wstore):
        report = compute_point(wstore, "identity")
        assert report.outcome == report.baseline
        assert report.moved_files == 0
        for layer in ("pfs", "insystem"):
            for direction in ("read", "write"):
                assert report.time_ratio(layer, direction) == 1.0

    def test_sweep_point_matches_compute_point(self, wstore):
        [swept] = sweep(wstore, "identity", [{}])
        assert swept == compute_point(wstore, "identity")

    def test_registry_matches_direct_call(self, wstore):
        served = run_query(wstore, "whatif_identity")
        direct = compute_point(wstore, "identity")
        assert served == direct
        wire = serialize_result(default_registry()["whatif_identity"], served)
        assert wire["headers"] == HEADERS["whatif"]
        assert wire["rows"] == direct.to_rows()

    def test_cli_identity_reads_zero(self, wstore, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "wi.npz")
        save_store(wstore, path)
        assert main(["whatif", path, "--scenario", "identity"]) == 0
        out = capsys.readouterr().out
        assert "1.000x" in out
        for cell in ("0.999x", "1.001x"):
            assert cell not in out


class TestScenarioEffects:
    """Directional sanity per scenario (goldens live in the fault tests)."""

    def test_ost_fault_slows_pfs(self, wstore):
        r = compute_point(wstore, "ost_fault", {"servers_offline": 0.2})
        assert r.time_ratio("pfs", "read") > 1.0
        assert r.time_ratio("pfs", "write") > 1.0
        # Shrunken peaks raise the operator's utilization view.
        assert (r.metric("pfs", "read").peak_util
                > r.metric("pfs", "read", baseline=True).peak_util)

    def test_contention_slows_both_layers(self, wstore):
        r = compute_point(wstore, "contention", {"factor": 2.0})
        assert r.time_ratio("pfs", "read") > 1.0
        assert r.time_ratio("pfs", "write") > 1.0

    def test_contention_relief_speeds_up(self, wstore):
        r = compute_point(wstore, "contention", {"factor": 0.5})
        assert r.time_ratio("pfs", "read") < 1.0

    def test_stripe_scaling_raises_pfs_bandwidth(self, wstore):
        r = compute_point(wstore, "stripe", {"factor": 4.0})
        assert (r.metric("pfs", "read").median_bw
                > r.metric("pfs", "read", baseline=True).median_bw)

    def test_bb_offload_moves_checkpoints(self, wstore):
        r = compute_point(wstore, "bb_offload", {"min_gb": 1.0})
        assert r.moved_files > 0
        base = r.metric("pfs", "write", baseline=True)
        scn = r.metric("pfs", "write")
        # moved_files counts every relocated row; the files column only
        # the unique-accounting (non-MPI-IO) ones — so bounded, not equal.
        assert 0 < base.files - scn.files <= r.moved_files
        assert scn.seconds < base.seconds
        assert (r.metric("insystem", "write").files
                > r.metric("insystem", "write", baseline=True).files)

    def test_bb_offload_materialized_relayers_rows(self, wstore):
        from repro.store.schema import LAYER_INSYSTEM

        twin = materialize(wstore, "bb_offload", {"min_gb": 1.0})
        r = compute_point(wstore, "bb_offload", {"min_gb": 1.0})
        gained = ((twin.files["layer"] == LAYER_INSYSTEM).sum()
                  - (wstore.files["layer"] == LAYER_INSYSTEM).sum())
        assert int(gained) == r.moved_files

    def test_bb_drain_slows_insystem_only(self, cori_store_small):
        mask = np.zeros(len(cori_store_small.files), dtype=bool)
        mask[::8] = True
        store = cori_store_small.filter(mask)
        r = compute_point(store, "bb_drain", {})
        assert r.time_ratio("insystem", "write") > 1.0
        assert r.time_ratio("pfs", "write") == 1.0


class TestSweep:
    def test_empty_sweep_is_typed(self, wstore):
        with pytest.raises(WhatIfError, match="no points"):
            sweep(wstore, "stripe", [])

    def test_point_order_preserved(self, wstore):
        reports = sweep(
            wstore, "stripe",
            [{"factor": f} for f in (0.5, 1.0, 2.0)],
        )
        assert [r.params for r in reports] == [
            (("factor", 0.5),), (("factor", 1.0),), (("factor", 2.0),),
        ]
        # All points share the one baseline computed in the parent.
        assert reports[0].baseline == reports[2].baseline
        # The neutral point rides the same path and still reads zero.
        assert reports[1].outcome == reports[1].baseline

    def test_bad_point_rejected_before_any_work(self, wstore):
        with pytest.raises(WhatIfError, match="must be"):
            sweep(wstore, "stripe", [{"factor": 2.0}, {"factor": -1.0}])

    def test_sweep_returns_reports_only(self, wstore):
        """A twin store comes from materialize(), not from sweep()."""
        with pytest.raises(TypeError):
            sweep(wstore, "identity", [None], materialize=True)


@pytest.mark.parallel
class TestSweepFanout:
    """Differential: pooled sweeps are worker-count-invariant, byte for byte."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_reports_identical_across_worker_counts(self, wstore, jobs):
        points = [{"factor": f} for f in (0.5, 2.0, 4.0, 8.0)]
        serial = sweep(wstore, "stripe", points, jobs=1)
        pooled = sweep(wstore, "stripe", points, jobs=jobs)
        assert pooled == serial

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(factor=st.sampled_from([0.25, 0.5, 2.0, 4.0, 16.0]),
           jobs=st.sampled_from([2, 4]))
    def test_any_point_any_worker_count(self, wstore, factor, jobs):
        points = [{"factor": factor}, {"factor": 1.0}]
        assert (sweep(wstore, "stripe", points, jobs=jobs)
                == sweep(wstore, "stripe", points, jobs=1))


class TestServeCaching:
    """(scenario, params, generation) caching through the query engine."""

    @pytest.fixture()
    def engine(self, wstore):
        # A private filtered copy: the append-based tests mutate it.
        store = wstore.filter(np.ones(len(wstore.files), dtype=bool))
        with QueryEngine(store, max_workers=2, cache_entries=64) as engine:
            yield engine

    @staticmethod
    def _counter(engine, name):
        return engine.metrics.snapshot()["counters"].get(name, 0)

    def test_repeated_point_is_a_cache_hit(self, engine):
        first = engine.query("whatif_ost_fault", {"servers_offline": 0.2})
        hits = self._counter(engine, "cache_hits")
        second = engine.query("whatif_ost_fault", {"servers_offline": 0.2})
        assert self._counter(engine, "cache_hits") == hits + 1
        assert second == first

    def test_distinct_params_are_distinct_entries(self, engine):
        engine.query("whatif_contention", {"factor": 2.0})
        misses = self._counter(engine, "cache_misses")
        engine.query("whatif_contention", {"factor": 4.0})
        assert self._counter(engine, "cache_misses") == misses + 1

    def test_append_invalidates_cached_points(self, engine):
        store = engine.store
        r1 = engine.query("whatif_identity")
        misses = self._counter(engine, "cache_misses")
        store.append(store.files[:4].copy())
        r2 = engine.query("whatif_identity")
        assert self._counter(engine, "cache_misses") == misses + 1
        # The recomputed point reflects the four extra rows.
        assert (r2.metric("pfs", "read", baseline=True).files
                >= r1.metric("pfs", "read", baseline=True).files)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(factor=st.floats(min_value=0.0625, max_value=64.0,
                            allow_nan=False, allow_infinity=False))
    def test_property_identical_queries_always_hit(self, engine, factor):
        params = {"factor": factor}
        first = engine.query("whatif_contention", params)
        hits = self._counter(engine, "cache_hits")
        assert engine.query("whatif_contention", params) == first
        assert self._counter(engine, "cache_hits") == hits + 1

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(nrows=st.integers(min_value=1, max_value=32))
    def test_property_append_always_invalidates(self, engine, nrows):
        store = engine.store
        engine.query("whatif_identity")
        generation = store.generation
        misses = self._counter(engine, "cache_misses")
        store.append(store.files[:nrows].copy())
        assert store.generation > generation
        engine.query("whatif_identity")
        assert self._counter(engine, "cache_misses") == misses + 1
