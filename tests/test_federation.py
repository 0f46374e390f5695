"""Multi-store federation: catalog, scatter-gather executor, compare.

The load-bearing test is the differential: a catalog of K
month-partitioned stores must answer every mergeable registry query
**bit-identically** to the single merged store built from the same
members — for the reducer family because integer tallies add
associatively, for the merged-store fallback by construction. The
cache-isolation test pins the federation's reason to exist: growing one
member's month never invalidates another member's cached results.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import run_query
from repro.errors import (
    CatalogError,
    CatalogMemberError,
    MergeSchemaError,
    UnknownMemberError,
)
from repro.federation import (
    REDUCERS,
    FederationExecutor,
    StoreCatalog,
    federated_registry,
    load_catalog,
)
from repro.federation.compare import parse_cell
from repro.serve.registry import default_registry, serialize_result
from repro.store.io import load_store, save_store
from repro.store.merge import merge_stores

MERGEABLE = sorted(
    name for name, spec in default_registry().items() if spec.mergeable
)


def partition_by_month(store, k):
    """Split a store into k disjoint job populations by start time.

    Stand-ins for per-month ingests: together they cover every job, and
    merging them back (independent populations) is the ground truth the
    federated answers are pinned against.
    """
    order = np.argsort(store.jobs["start_time"], kind="stable")
    parts = []
    for chunk in np.array_split(order, k):
        mask = np.zeros(len(store.jobs), dtype=bool)
        mask[chunk] = True
        parts.append(store.filter_jobs(mask))
    return parts


def build_catalog(tmp_path, stores, labels=None, periods=None, **add_kwargs):
    catalog = StoreCatalog.init(str(tmp_path / "fleet.json"))
    for i, store in enumerate(stores):
        label = labels[i] if labels else f"m{i}"
        path = str(tmp_path / f"{label}.npz")
        save_store(store, path)
        catalog.add_store(
            label, path,
            period=periods[i] if periods else f"2020-{i + 1:02d}",
            **add_kwargs,
        )
    return catalog


@pytest.fixture(scope="module")
def month_parts(summit_store_small):
    return partition_by_month(summit_store_small, 3)


@pytest.fixture()
def fleet(tmp_path, month_parts):
    """A 2-member catalog plus its executor (function-scoped: tests
    mutate member stores and caches)."""
    catalog = build_catalog(tmp_path, month_parts[:2], facility="olcf")
    with FederationExecutor(catalog) as executor:
        yield executor


class TestCatalogManifest:
    def test_init_refuses_overwrite(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        StoreCatalog.init(path)
        with pytest.raises(CatalogError, match="already exists"):
            StoreCatalog.init(path)

    def test_add_list_remove_roundtrip(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2], facility="olcf")
        reread = load_catalog(catalog.path)
        assert reread.labels == ["m0", "m1"]
        m = reread.member("m0")
        assert (m.kind, m.facility, m.period) == ("store", "olcf", "2020-01")
        assert m.rows == len(month_parts[0].files)
        assert m.jobs == len(month_parts[0].jobs)
        reread.remove("m0")
        assert load_catalog(catalog.path).labels == ["m1"]

    def test_member_paths_are_relative_so_catalogs_relocate(
        self, tmp_path, month_parts
    ):
        catalog = build_catalog(tmp_path, month_parts[:1])
        assert not os.path.isabs(catalog.member("m0").location)
        moved = tmp_path / "moved"
        moved.mkdir()
        for name in os.listdir(tmp_path):
            if name != "moved":
                os.rename(tmp_path / name, moved / name)
        relocated = load_catalog(str(moved / "fleet.json"))
        assert len(relocated.load_member("m0").files) == len(
            month_parts[0].files
        )

    def test_duplicate_label_rejected_actionably(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        path = str(tmp_path / "m0.npz")
        with pytest.raises(CatalogError, match="duplicate member label"):
            catalog.add_store("m0", path)
        with pytest.raises(CatalogError, match="catalog remove"):
            catalog.add_store("m0", path)

    def test_malformed_period_rejected_at_add(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        path = str(tmp_path / "m0.npz")
        for bad in ("202001", "2020-13", "2020-03:2020-01", "jan"):
            with pytest.raises(CatalogError, match="period"):
                catalog.add_store(f"x-{bad}", path, period=bad)

    def test_unknown_member_is_typed(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        with pytest.raises(UnknownMemberError, match="unknown member 'nope'"):
            catalog.member("nope")

    def test_missing_store_add_is_typed(self, tmp_path):
        catalog = StoreCatalog.init(str(tmp_path / "fleet.json"))
        with pytest.raises(CatalogMemberError, match="member 'gone'"):
            catalog.add_store("gone", str(tmp_path / "gone.npz"))

    def test_save_is_atomic(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2])
        assert not os.path.exists(catalog.path + ".tmp")
        # The manifest on disk is always complete, valid JSON.
        with open(catalog.path) as fh:
            blob = json.load(fh)
        assert blob["format"] == "repro-catalog-v1"
        assert [m["label"] for m in blob["members"]] == ["m0", "m1"]

    def test_corrupt_manifest_is_typed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-catalog-v1", "mem')
        with pytest.raises(CatalogError, match="corrupt catalog manifest"):
            load_catalog(str(path))

    def test_unknown_format_and_future_version_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-thing"}')
        with pytest.raises(CatalogError, match="unknown catalog format"):
            load_catalog(str(path))
        path.write_text(
            '{"format": "repro-catalog-v1", "schema_version": 99, "members": []}'
        )
        with pytest.raises(CatalogError, match="newer than"):
            load_catalog(str(path))

    def test_manifest_with_duplicate_labels_refused(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        with open(catalog.path) as fh:
            blob = json.load(fh)
        blob["members"].append(dict(blob["members"][0]))
        with open(catalog.path, "w") as fh:
            json.dump(blob, fh)
        with pytest.raises(CatalogError, match="duplicate member label"):
            load_catalog(catalog.path)

    def test_missing_manifest_suggests_init(self, tmp_path):
        with pytest.raises(CatalogError, match="repro catalog init"):
            load_catalog(str(tmp_path / "nothere.json"))


class TestVerify:
    def test_healthy_catalog_verifies_clean(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2], facility="olcf")
        assert catalog.verify() == []

    def test_overlapping_periods_same_facility_flagged(
        self, tmp_path, month_parts
    ):
        catalog = build_catalog(
            tmp_path, month_parts[:2], facility="olcf",
            periods=["2020-01:2020-03", "2020-03"],
        )
        problems = catalog.verify()
        assert len(problems) == 1
        assert "overlapping periods" in problems[0]
        assert "'m0'" in problems[0] and "'m1'" in problems[0]

    def test_same_period_different_facility_ok(self, tmp_path, month_parts):
        catalog = StoreCatalog.init(str(tmp_path / "fleet.json"))
        for i, facility in enumerate(("olcf", "nersc")):
            path = str(tmp_path / f"{facility}.npz")
            save_store(month_parts[i], path)
            catalog.add_store(
                facility, path, facility=facility, period="2020-01"
            )
        assert catalog.verify() == []

    def test_missing_member_flagged_with_remedy(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2])
        os.remove(str(tmp_path / "m0.npz"))
        problems = catalog.verify()
        assert any("member 'm0'" in p and "catalog remove" in p for p in problems)

    def test_corrupt_member_flagged(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        (tmp_path / "m0.npz").write_bytes(b"not a zip")
        problems = catalog.verify()
        assert any("member 'm0'" in p for p in problems)

    def test_mixed_schema_versions_flagged(
        self, tmp_path, month_parts, monkeypatch
    ):
        catalog = build_catalog(tmp_path, month_parts[:2])
        # Every store this library writes is at the current version, so
        # impersonate a member written by a newer library at load time.
        real = catalog.load_member

        def from_newer_library(label):
            store = real(label)
            if label == "m1":
                store.schema_version = 2
            return store

        monkeypatch.setattr(catalog, "load_member", from_newer_library)
        problems = catalog.verify()
        assert any(
            "mixed store schema versions" in p and "m1" in p
            for p in problems
        )

    def test_scale_mismatch_flagged(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        other = month_parts[1]
        rescaled = type(other)(
            other.platform, other.files.copy(), other.jobs.copy(),
            domains=other.domains, extensions=other.extensions,
            scale=other.scale / 2,
        )
        path = str(tmp_path / "rescaled.npz")
        save_store(rescaled, path)
        catalog.add_store("odd", path, period="2020-02")
        problems = catalog.verify()
        assert any("different scales" in p for p in problems)


class TestRefresh:
    def test_unchanged_members_keep_generation(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2])
        assert catalog.refresh() == []
        assert [m.generation for m in catalog] == [0, 0]

    def test_changed_member_bumps_only_itself(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:2])
        grown = merge_stores(
            [month_parts[0], month_parts[2]],
            remap_log_ids=True, remap_job_ids=True,
        )
        save_store(grown, str(tmp_path / "m0.npz"))
        assert catalog.refresh() == ["m0"]
        assert catalog.member("m0").generation == 1
        assert catalog.member("m0").rows == len(grown.files)
        assert catalog.member("m1").generation == 0
        # Persisted: a fresh load sees the bump.
        assert load_catalog(catalog.path).member("m0").generation == 1


class TestDifferential:
    """Catalog of K month-partitioned stores == the single merged store,
    bit-identically, for every mergeable registry query."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_federated_equals_merged_store(self, tmp_path, month_parts, k):
        parts = month_parts[:k]
        catalog = build_catalog(tmp_path, parts)
        merged = merge_stores(
            parts, remap_log_ids=True, remap_job_ids=True
        )
        registry = default_registry()
        with FederationExecutor(catalog) as executor:
            for name in MERGEABLE:
                spec = registry[name]
                got = serialize_result(spec, executor.query(name))
                want = serialize_result(spec, run_query(merged, name))
                assert got == want, name

    def test_reducer_set_matches_foldable_set(self):
        """Exactly the append-foldable queries have exact reducers —
        the same associativity argument underwrites both."""
        registry = default_registry()
        foldable = {n for n, s in registry.items() if s.foldable}
        assert set(REDUCERS) == foldable

    def test_reducer_path_actually_taken(self, fleet):
        fleet.query("table3")
        fleet.query("table2")
        counters = fleet.stats()["counters"]
        assert counters["reduced"] == 1
        assert counters["merged_fallback"] == 1


class TestRouting:
    def test_single_member_routes_to_that_store(self, fleet, month_parts):
        got = fleet.query("table3", {"member": "m1"})
        want = run_query(month_parts[1], "table3")
        assert got.to_rows() == want.to_rows()

    def test_subset_reduces_over_selected_members(
        self, tmp_path, month_parts
    ):
        catalog = build_catalog(tmp_path, month_parts)
        merged01 = merge_stores(
            month_parts[:2], remap_log_ids=True, remap_job_ids=True
        )
        with FederationExecutor(catalog) as executor:
            got = executor.query("table3", {"member": "m0,m1"})
        assert got.to_rows() == run_query(merged01, "table3").to_rows()

    def test_facility_and_period_axes_select(self, tmp_path, month_parts):
        catalog = StoreCatalog.init(str(tmp_path / "fleet.json"))
        for i, (label, facility) in enumerate(
            (("a", "olcf"), ("b", "olcf"), ("c", "nersc"))
        ):
            path = str(tmp_path / f"{label}.npz")
            save_store(month_parts[i], path)
            catalog.add_store(
                label, path, facility=facility, period=f"2020-{i + 1:02d}"
            )
        with FederationExecutor(catalog) as executor:
            assert [m.label for m in executor.select({"facility": "olcf"})] == ["a", "b"]
            assert [m.label for m in executor.select({"period": "2020-02:2020-03"})] == ["b", "c"]
            assert [m.label for m in executor.select({"member": "c,a"})] == ["c", "a"]

    def test_unknown_member_and_empty_selection_are_typed(self, fleet):
        with pytest.raises(UnknownMemberError, match="unknown member"):
            fleet.query("table3", {"member": "nope"})
        with pytest.raises(CatalogError, match="no catalog members match"):
            fleet.query("table3", {"facility": "lanl"})


class TestCacheIsolation:
    """The federation's cache-keying invariant (DESIGN.md §14): a
    per-member generation bump invalidates only that member's entries."""

    def test_member_bump_recomputes_only_that_member(
        self, tmp_path, month_parts
    ):
        catalog = build_catalog(tmp_path, month_parts[:2])
        with FederationExecutor(catalog) as executor:
            executor.query("table3")
            assert executor.stats()["counters"]["member_runs"] == 2
            # Warm repeat: both members answer from cache.
            executor.query("table3")
            assert executor.stats()["counters"]["member_runs"] == 2

            # Grow member m0 on disk; refresh bumps only its generation.
            grown = merge_stores(
                [month_parts[0], month_parts[2]],
                remap_log_ids=True, remap_job_ids=True,
            )
            save_store(grown, str(tmp_path / "m0.npz"))
            assert catalog.refresh() == ["m0"]

            before = executor.cache.info()
            result = executor.query("table3")
            after = executor.cache.info()
            # Exactly one member (m0) recomputed; m1 hit its old entry.
            assert executor.stats()["counters"]["member_runs"] == 3
            assert after["hits"] == before["hits"] + 1
            # And the reduced answer reflects the grown member.
            want = run_query(
                merge_stores(
                    [grown, month_parts[1]],
                    remap_log_ids=True, remap_job_ids=True,
                ),
                "table3",
            )
            assert result.to_rows() == want.to_rows()

    def test_params_distinguish_cache_entries(self, fleet):
        fleet.query("fig4", {"member": "m0"})
        fleet.query("fig5", {"member": "m0"})
        assert fleet.stats()["counters"]["member_runs"] == 2


class TestCompare:
    def test_compare_aligns_rows_and_diffs_numbers(self, fleet, month_parts):
        report = fleet.compare("table6", "m0", "m1")
        assert report.member_a == "m0" and report.member_b == "m1"
        rows = report.rows
        assert rows, "expected aligned numeric cells"
        # Each comparison row carries the member values it was built from.
        a_wire = serialize_result(
            default_registry()["table6"], run_query(month_parts[0], "table6")
        )
        keys = {row[0] for row in rows}
        assert any("pfs" in k for k in keys)
        for row in rows:
            assert len(row) == 6
            va, vb = parse_cell(row[2]), parse_cell(row[3])
            assert va is not None and vb is not None
        assert a_wire["rows"], "sanity: side A produced rows"

    def test_warm_compare_runs_no_member(self, fleet):
        cold = fleet.compare("table3", "m0", "m1")
        runs = fleet.stats()["counters"]["member_runs"]
        warm = fleet.compare("table3", "m0", "m1")
        assert fleet.stats()["counters"]["member_runs"] == runs
        assert warm.rows == cold.rows

    def test_compare_reports_one_sided_rows(self):
        from repro.federation.compare import compare_serialized

        wire_a = {"kind": "table", "headers": ["sys", "n"],
                  "rows": [["summit", "1"], ["cori", "2"]]}
        wire_b = {"kind": "table", "headers": ["sys", "n"],
                  "rows": [["summit", "3"]]}
        report = compare_serialized("q", "a", "b", wire_a, wire_b)
        assert report.only_a == ["cori"] and report.only_b == []
        assert ["summit", "n", "1", "3", "+2", "+200.0%"] in report.rows
        assert ["cori", "(row)", "present", "absent", "-", "-"] in report.to_rows()

    def test_compare_same_member_twice_rejected(self, fleet):
        with pytest.raises(CatalogError, match="two distinct members"):
            fleet.compare("table3", "m0", "m0")

    def test_parse_cell_formats(self):
        assert parse_cell("7.7M") == pytest.approx(7.7e6)
        assert parse_cell("281.6K") == pytest.approx(281.6e3)
        assert parse_cell("1.50 GB") == 1_500_000_000
        assert parse_cell("-2.00 KiB") == -2048
        assert parse_cell("95.7%") == pytest.approx(95.7)
        assert parse_cell("3.63x") == pytest.approx(3.63)
        assert parse_cell("inf") == float("inf")
        assert parse_cell("summit") is None
        assert parse_cell("read-only") is None


class TestFederatedRegistry:
    def test_surface_has_federated_compare_and_members(self, fleet):
        federated = federated_registry(fleet)
        assert "catalog_members" in federated
        for name in MERGEABLE:
            assert name in federated
            assert f"compare_{name}" in federated
            assert "member" in federated[name].param_names
            assert not federated[name].cacheable
        # No single-store-only specs leak through.
        assert "shapes" not in federated
        assert not any(n.startswith("whatif_") for n in federated)

    def test_members_listing_renders(self, fleet):
        rows = federated_registry(fleet)["catalog_members"].run(
            None, None, {}
        ).to_rows()
        assert [r[0] for r in rows] == ["m0", "m1"]
        assert all(len(r) == 8 for r in rows)

    def test_compare_spec_requires_both_labels(self, fleet):
        spec = federated_registry(fleet)["compare_table3"]
        with pytest.raises(CatalogError, match="a=<member> and b=<member>"):
            spec.run(None, None, {"a": "m0"})


class TestRemoteMembers:
    @pytest.fixture()
    def remote_fleet(self, tmp_path, month_parts):
        """m0 local, m1 behind a live repro-serve endpoint."""
        from repro.serve.engine import QueryEngine
        from repro.serve.server import BackgroundServer

        catalog = build_catalog(tmp_path, month_parts[:1], facility="olcf")
        with QueryEngine(month_parts[1]) as engine:
            with BackgroundServer(engine) as server:
                catalog.add_endpoint(
                    "m1", server.host, server.port,
                    facility="olcf", period="2020-02",
                )
                with FederationExecutor(catalog) as executor:
                    yield executor

    def test_endpoint_member_probed_on_add(self, remote_fleet):
        m = remote_fleet.catalog.member("m1")
        assert m.kind == "serve"
        assert m.platform == "summit"
        assert m.rows > 0

    def test_routed_query_returns_remote_wire_result(
        self, remote_fleet, month_parts
    ):
        got = remote_fleet.query("table3", {"member": "m1"})
        assert got["kind"] == "table"
        want = serialize_result(
            default_registry()["table3"], run_query(month_parts[1], "table3")
        )
        assert got == want

    def test_scatter_reduce_with_remote_member_is_typed(self, remote_fleet):
        with pytest.raises(CatalogError, match="remote member"):
            remote_fleet.query("table3")
        with pytest.raises(CatalogError, match="remote member"):
            remote_fleet.query("table2")

    def test_compare_works_across_local_and_remote(
        self, remote_fleet, month_parts
    ):
        report = remote_fleet.compare("table3", "m0", "m1")
        assert report.rows
        # Identical to a fully-local compare of the same two stores.
        spec = default_registry()["table3"]
        from repro.federation.compare import compare_serialized

        want = compare_serialized(
            "table3", "m0", "m1",
            serialize_result(spec, run_query(month_parts[0], "table3")),
            serialize_result(spec, run_query(month_parts[1], "table3")),
        )
        assert report.rows == want.rows

    def test_dead_endpoint_verify_is_actionable(self, tmp_path, month_parts):
        catalog = build_catalog(tmp_path, month_parts[:1])
        # Manufacture an endpoint member without probing (port 1 is dead).
        from dataclasses import replace

        member = replace(
            catalog.member("m0"), label="dead", kind="serve",
            location="127.0.0.1:1", period="2020-09",
        )
        catalog._members["dead"] = member
        catalog.save()
        problems = load_catalog(catalog.path).verify()
        assert any("unreachable" in p and "'dead'" in p for p in problems)


class TestFederatedServing:
    def test_engine_serves_federated_registry_over_wire(
        self, tmp_path, month_parts
    ):
        from repro.serve.client import ServeClient
        from repro.serve.engine import QueryEngine
        from repro.serve.server import BackgroundServer

        catalog = build_catalog(tmp_path, month_parts[:2])
        merged = merge_stores(
            month_parts[:2], remap_log_ids=True, remap_job_ids=True
        )
        with FederationExecutor(catalog) as executor:
            engine = QueryEngine(
                executor.anchor_store(),
                registry=federated_registry(executor),
            )
            with engine, BackgroundServer(engine) as server:
                with ServeClient(server.host, server.port) as client:
                    # Fleet-wide query over the socket == merged store.
                    got = client.query("table3")
                    want = serialize_result(
                        default_registry()["table3"],
                        run_query(merged, "table3"),
                    )
                    # The federated spec re-titles; the data must match.
                    assert got["title"] == f"{want['title']} (federated)"
                    got.pop("title"), want.pop("title")
                    assert got == want
                    # compare_* and catalog_members are first-class.
                    compared = client.query(
                        "compare_table3", {"a": "m0", "b": "m1"}
                    )
                    assert compared["kind"] == "table"
                    assert compared["headers"][0] == "row"
                    members = client.query("catalog_members")
                    assert [r[0] for r in members["rows"]] == ["m0", "m1"]
                    # Routing params validate like any other params.
                    names = client.list_queries()
                    assert "member" in names["table3"]["params"]

    def test_single_store_engine_unaffected(self, month_parts):
        """Without registry=, the engine surface is unchanged."""
        from repro.serve.engine import QueryEngine

        with QueryEngine(month_parts[0]) as engine:
            assert "catalog_members" not in engine.registry
            assert engine.spec("table3").mergeable


class TestCatalogCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_init_add_list_verify_refresh(
        self, tmp_path, month_parts, capsys
    ):
        manifest = str(tmp_path / "fleet.json")
        store0 = str(tmp_path / "jan.npz")
        store1 = str(tmp_path / "feb.npz")
        save_store(month_parts[0], store0)
        save_store(month_parts[1], store1)

        assert self.run_cli("catalog", "init", manifest) == 0
        assert self.run_cli(
            "catalog", "add", manifest, "jan", "--store", store0,
            "--facility", "olcf", "--period", "2020-01",
        ) == 0
        assert self.run_cli(
            "catalog", "add", manifest, "feb", "--store", store1,
            "--facility", "olcf", "--period", "2020-02",
        ) == 0
        assert self.run_cli("catalog", "list", manifest) == 0
        out = capsys.readouterr().out
        assert "jan" in out and "feb" in out and "2020-02" in out

        assert self.run_cli("catalog", "verify", manifest) == 0
        assert "catalog ok" in capsys.readouterr().out
        assert self.run_cli("catalog", "refresh", manifest) == 0

        # Break a member: verify now fails with exit 1 and a remedy.
        os.remove(store0)
        assert self.run_cli("catalog", "verify", manifest) == 1
        assert "catalog remove" in capsys.readouterr().out

    def test_add_requires_exactly_one_source(self, tmp_path, capsys):
        manifest = str(tmp_path / "fleet.json")
        self.run_cli("catalog", "init", manifest)
        assert self.run_cli("catalog", "add", manifest, "x") == 2
        assert "--store or --endpoint" in capsys.readouterr().err

    def test_duplicate_add_exits_nonzero(self, tmp_path, month_parts, capsys):
        manifest = str(tmp_path / "fleet.json")
        store0 = str(tmp_path / "jan.npz")
        save_store(month_parts[0], store0)
        self.run_cli("catalog", "init", manifest)
        self.run_cli("catalog", "add", manifest, "jan", "--store", store0)
        assert self.run_cli(
            "catalog", "add", manifest, "jan", "--store", store0
        ) == 1
        assert "duplicate member label" in capsys.readouterr().err

    def test_analyze_and_query_catalog_paths(
        self, tmp_path, month_parts, capsys
    ):
        manifest = str(tmp_path / "fleet.json")
        for i, label in enumerate(("jan", "feb")):
            path = str(tmp_path / f"{label}.npz")
            save_store(month_parts[i], path)
            if i == 0:
                self.run_cli("catalog", "init", manifest)
            self.run_cli(
                "catalog", "add", manifest, label, "--store", path,
                "--period", f"2020-{i + 1:02d}",
            )
        merged = merge_stores(
            month_parts[:2], remap_log_ids=True, remap_job_ids=True
        )
        assert self.run_cli(
            "analyze", "--catalog", manifest, "--exhibit", "table3"
        ) == 0
        out = capsys.readouterr().out
        want = run_query(merged, "table3").to_rows()
        for cell in want[0]:
            assert cell in out

        # Routed to one member.
        assert self.run_cli(
            "analyze", "--catalog", manifest, "--exhibit", "table3",
            "--member", "jan",
        ) == 0
        capsys.readouterr()

        # In-process federated query: compare + JSON output.
        assert self.run_cli(
            "query", "compare_table3", "--catalog", manifest,
            "--params", '{"a": "jan", "b": "feb"}', "--json",
        ) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["kind"] == "table"
        assert blob["headers"][0] == "row"

        # Unknown federated name fails with the available list.
        assert self.run_cli(
            "query", "shapes", "--catalog", manifest
        ) == 2
        assert "not a federated query" in capsys.readouterr().err

    def test_analyze_catalog_member_error_is_clean(
        self, tmp_path, month_parts, capsys
    ):
        manifest = str(tmp_path / "fleet.json")
        store0 = str(tmp_path / "jan.npz")
        save_store(month_parts[0], store0)
        self.run_cli("catalog", "init", manifest)
        self.run_cli("catalog", "add", manifest, "jan", "--store", store0)
        assert self.run_cli(
            "analyze", "--catalog", manifest, "--exhibit", "table3",
            "--member", "nope",
        ) == 1
        assert "unknown member" in capsys.readouterr().err
