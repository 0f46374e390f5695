"""Scenario packs: golden characterizations and the end-to-end flow.

Each builtin pack's Table-3/Table-6 characterization (Summit,
``SMALL_SCALE``, the suite seed) is pinned in
``tests/goldens/spec_packs.json`` — any drift in a pack's population or
overlay behavior fails loudly and must be an intentional, regenerated
change. The directional tests then check the overlays push the physics
the right way (faults and contention slow I/O without touching the
sampled bytes), and the end-to-end class proves a spec-generated store
flows unchanged through analyze, serve, what-if, and federation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro.federation.executor import FederationExecutor
from repro.serve.engine import QueryEngine
from repro.spec import generate_from_spec, pack_names
from repro.store.io import load_store, save_store
from repro.store.schema import LAYER_PFS
from tests.conftest import SEED, SMALL_SCALE, build_catalog

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "spec_packs.json"
)

#: The three overlay packs with pinned characterizations (paper_mix is
#: pinned harder — byte-identity in tests/test_spec.py).
SCENARIO_PACKS = ("degraded_ost_month", "bb_eviction_storm", "noisy_neighbor")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pack_stores():
    """Every scenario pack's Summit store at the golden scale/seed."""
    return {
        pack: generate_from_spec(
            pack, platform="summit", scale=SMALL_SCALE, seed=SEED
        )
        for pack in SCENARIO_PACKS
    }


class TestGoldenCharacterizations:
    def test_golden_covers_every_scenario_pack(self):
        golden = load_golden()
        assert sorted(golden) == sorted(SCENARIO_PACKS)
        assert set(SCENARIO_PACKS) < set(pack_names())

    @pytest.mark.parametrize("pack", SCENARIO_PACKS)
    def test_table3_pinned(self, pack, pack_stores):
        golden = load_golden()[pack]
        assert golden["scale"] == SMALL_SCALE and golden["seed"] == SEED
        rows = repro.run_query(pack_stores[pack], "table3").to_rows()
        assert json.loads(json.dumps(rows)) == golden["table3"]

    @pytest.mark.parametrize("pack", SCENARIO_PACKS)
    def test_table6_pinned(self, pack, pack_stores):
        golden = load_golden()[pack]
        rows = repro.run_query(pack_stores[pack], "table6").to_rows()
        assert json.loads(json.dumps(rows)) == golden["table6"]


class TestOverlayDirections:
    """Overlays must bend times, not bytes, and in the right direction."""

    def test_degraded_ost_same_population_slower_pfs_writes(
        self, pack_stores, summit_store_small
    ):
        # degraded_ost_month is the paper population (same phases as
        # paper_mix) with only the machine/perf degraded, so the sampled
        # bytes are identical and only the times move.
        paper, degraded = summit_store_small, pack_stores["degraded_ost_month"]
        assert len(degraded.files) == len(paper.files)
        np.testing.assert_array_equal(
            degraded.files["bytes_written"], paper.files["bytes_written"]
        )
        pfs_d = degraded.files[degraded.files["layer"] == LAYER_PFS]
        pfs_p = paper.files[paper.files["layer"] == LAYER_PFS]
        assert pfs_d["write_time"].sum() > pfs_p["write_time"].sum()
        assert pfs_d["read_time"].sum() > pfs_p["read_time"].sum()

    def test_contention_overlay_slows_io_without_touching_bytes(
        self, summit_store_small
    ):
        crowded = generate_from_spec(
            {
                "name": "crowded_paper",
                "phases": [
                    {"name": "paper", "pattern": "paper", "weight": 1.0}
                ],
                "overlays": {"contention": {"factor": 2.5}},
            },
            platform="summit", scale=SMALL_SCALE, seed=SEED,
        )
        paper = summit_store_small
        np.testing.assert_array_equal(
            crowded.files["bytes_read"], paper.files["bytes_read"]
        )
        total = lambda s: (  # noqa: E731
            s.files["read_time"].sum() + s.files["write_time"].sum()
        )
        assert total(crowded) > total(paper)

    def test_eviction_storm_is_insystem_write_heavy(
        self, pack_stores, summit_store_small
    ):
        def insystem_write_share(store):
            on_bb = store.files["layer"] != LAYER_PFS
            written = store.files["bytes_written"]
            return written[on_bb].sum() / written.sum()

        assert insystem_write_share(
            pack_stores["bb_eviction_storm"]
        ) > 5 * insystem_write_share(summit_store_small)

    def test_noisy_neighbor_adds_phases_on_top_of_paper(
        self, pack_stores, summit_store_small
    ):
        noisy = pack_stores["noisy_neighbor"]
        assert len(noisy.jobs) == len(summit_store_small.jobs)
        # 0.7 paper + training + mdsweep: more files per job overall.
        assert len(noisy.files) > 0
        assert noisy.domains == summit_store_small.domains


class TestEndToEnd:
    """One pack store through every downstream subsystem, unchanged."""

    def test_analyze_and_serve_agree(self, pack_stores):
        store = pack_stores["bb_eviction_storm"]
        direct = repro.run_query(store, "table3").to_rows()
        engine = QueryEngine(store, max_workers=2)
        try:
            served = engine.query("table3").to_rows()
            assert served == direct
            stats = engine.stats()
            assert stats["counters"].get("requests", 0) >= 1
            assert stats["store"]["rows"] == len(store.files)
        finally:
            engine.close()

    def test_whatif_runs_on_pack_store(self, pack_stores):
        report = repro.run_query(
            pack_stores["noisy_neighbor"], "whatif_contention",
            {"factor": 2.0},
        )
        identity = repro.run_query(
            pack_stores["noisy_neighbor"], "whatif_identity"
        )
        # Doubling interfering load on an already-noisy month still
        # costs time; the identity reconfiguration costs nothing.
        assert report.time_ratio("pfs", "write") > 1.0
        assert identity.time_ratio("pfs", "write") == pytest.approx(1.0)

    def test_federated_query_over_pack_stores(self, tmp_path, pack_stores):
        packs = sorted(pack_stores)
        catalog = build_catalog(
            tmp_path, [pack_stores[p] for p in packs], labels=packs
        )
        direct = repro.run_query(pack_stores["noisy_neighbor"], "table3")
        with FederationExecutor(catalog, max_workers=2) as executor:
            routed = executor.query("table3", {"member": "noisy_neighbor"})
        assert routed.to_rows() == direct.to_rows()

    def test_save_load_round_trip(self, tmp_path, pack_stores):
        store = pack_stores["degraded_ost_month"]
        path = str(tmp_path / "pack.npz")
        save_store(store, path)
        loaded = load_store(path)
        np.testing.assert_array_equal(loaded.files, store.files)
        np.testing.assert_array_equal(loaded.jobs, store.jobs)
