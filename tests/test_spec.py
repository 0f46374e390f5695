"""The workload-spec DSL: strict validation, loading and compilation.

The byte-identity contract — the builtin ``paper_mix`` pack generates a
store byte-identical to the direct archetype path on both platforms,
because compilation only rearranges which ArchetypeSpecs feed the
generator (DESIGN.md §15) — is a path of the differential oracle
(``tests/test_differential.py``). Everything here pins the SpecError
contract: every rejection names the dotted field path and the allowed
range.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError, SpecError
from repro.iosim.contention import ContentionModel
from repro.platforms import get_platform
from repro.spec import (
    CompiledSpec,
    WorkloadSpec,
    compile_spec,
    generate_from_spec,
    get_pack,
    get_pattern,
    load_spec,
    pack_names,
    pattern_catalog,
    validate_spec,
)
from repro.workloads.generator import GeneratorConfig
from repro.workloads.mixes import summit_mix
from tests.conftest import assert_stores_identical


def minimal_spec(**overrides) -> dict:
    """A small valid spec dict tests mutate to probe one rejection."""
    data = {
        "name": "probe",
        "phases": [
            {"name": "storm", "pattern": "checkpoint_storm", "weight": 1.0},
        ],
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_spec_validates(self):
        spec = validate_spec(minimal_spec())
        assert isinstance(spec, WorkloadSpec)
        assert spec.name == "probe"
        assert len(spec.phases) == 1
        # Pattern defaults are resolved at validation time, so compile
        # and the CLI listing can index params without re-defaulting.
        assert spec.phases[0].param_dict()["ckpt_gb"] == 128.0

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match=r"phasez: unknown key"):
            validate_spec(minimal_spec(phasez=[]))

    def test_unknown_phase_key(self):
        data = minimal_spec()
        data["phases"][0]["wieght"] = 1.0
        with pytest.raises(
            SpecError, match=r"phases\[0\]\.wieght: unknown key"
        ):
            validate_spec(data)

    def test_unknown_param_lists_allowed(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"checkpoint_gb": 10}
        with pytest.raises(
            SpecError,
            match=r"phases\[0\]\.params\.checkpoint_gb: unknown key.*ckpt_gb",
        ):
            validate_spec(data)

    def test_out_of_range_param_names_range(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"ckpt_gb": 99999}
        with pytest.raises(
            SpecError,
            match=r"phases\[0\]\.params\.ckpt_gb: must be <= 4096, got 99999",
        ):
            validate_spec(data)

    def test_wrong_type_param(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"ckpt_gb": "big"}
        with pytest.raises(
            SpecError, match=r"params\.ckpt_gb: must be a number"
        ):
            validate_spec(data)

    def test_bool_is_not_a_number(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"ckpt_gb": True}
        with pytest.raises(SpecError, match=r"must be a number, got True"):
            validate_spec(data)

    def test_integer_param_rejects_fraction(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"nodes_max": 12.5}
        with pytest.raises(
            SpecError, match=r"params\.nodes_max: must be an integer"
        ):
            validate_spec(data)

    def test_layer_choices(self):
        data = minimal_spec()
        data["phases"][0]["params"] = {"layer": "tape"}
        with pytest.raises(
            SpecError, match=r"params\.layer: must be one of pfs, insystem"
        ):
            validate_spec(data)

    def test_unknown_pattern_lists_available(self):
        data = minimal_spec()
        data["phases"][0]["pattern"] = "ckpt_storm"
        with pytest.raises(
            SpecError,
            match=r"phases\[0\]\.pattern: unknown pattern.*checkpoint_storm",
        ):
            validate_spec(data)

    def test_missing_required_keys(self):
        with pytest.raises(SpecError, match="name: required key is missing"):
            validate_spec({"phases": []})
        data = minimal_spec()
        del data["phases"][0]["weight"]
        with pytest.raises(
            SpecError, match=r"phases\[0\]\.weight: required key is missing"
        ):
            validate_spec(data)

    def test_empty_phases_rejected(self):
        with pytest.raises(SpecError, match="phases: must be a non-empty"):
            validate_spec(minimal_spec(phases=[]))

    def test_duplicate_phase_names_rejected(self):
        data = minimal_spec()
        data["phases"].append(dict(data["phases"][0]))
        with pytest.raises(
            SpecError, match=r"duplicate phase name 'storm'.*RNG substreams"
        ):
            validate_spec(data)

    def test_bad_platform(self):
        with pytest.raises(
            SpecError, match="platform: must be one of summit, cori"
        ):
            validate_spec(minimal_spec(platform="frontier"))

    def test_scale_bounds(self):
        with pytest.raises(SpecError, match="scale: must be <= 1"):
            validate_spec(minimal_spec(scale=2.0))

    def test_bad_spec_name(self):
        with pytest.raises(SpecError, match="name: must be alphanumeric"):
            validate_spec(minimal_spec(name="no spaces!"))

    def test_unknown_overlay_key(self):
        data = minimal_spec(overlays={"faults": {}})
        with pytest.raises(SpecError, match=r"overlays\.faults: unknown key"):
            validate_spec(data)

    def test_unknown_fault_preset_lists_available(self):
        data = minimal_spec(
            overlays={"fault": {"layer": "pfs", "preset": "meteor"}}
        )
        with pytest.raises(
            SpecError,
            match=r"overlays\.fault\.preset: unknown fault preset.*"
            r"eviction-storm",
        ):
            validate_spec(data)

    def test_fault_layer_required(self):
        data = minimal_spec(overlays={"fault": {"preset": "rebuild-storm"}})
        with pytest.raises(
            SpecError, match=r"overlays\.fault\.layer: must be one of"
        ):
            validate_spec(data)

    def test_contention_factor_bounds(self):
        data = minimal_spec(overlays={"contention": {"factor": 1000.0}})
        with pytest.raises(
            SpecError,
            match=r"overlays\.contention\.factor: must be <= 64, got 1000",
        ):
            validate_spec(data)

    def test_spec_error_is_repro_error_with_path(self):
        assert issubclass(SpecError, ReproError)
        err = SpecError("phases[0].weight", "boom")
        assert err.path == "phases[0].weight"
        assert str(err) == "phases[0].weight: boom"


class TestLoading:
    def test_pack_names_are_loadable(self):
        for name in pack_names():
            spec = load_spec(name)
            assert isinstance(spec, WorkloadSpec)
            assert spec.name == name

    def test_workload_spec_passes_through(self):
        spec = get_pack("paper_mix")
        assert load_spec(spec) is spec

    def test_round_trip_every_pack(self):
        for name in pack_names():
            spec = get_pack(name)
            assert load_spec(spec.to_dict()) == spec, name

    def test_json_file(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(minimal_spec()))
        spec = load_spec(str(path))
        assert spec.name == "probe"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="malformed JSON"):
            load_spec(str(path))

    def test_toml_file(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        del tomllib
        path = tmp_path / "probe.toml"
        path.write_text(
            'name = "probe"\n'
            "[[phases]]\n"
            'name = "storm"\n'
            'pattern = "checkpoint_storm"\n'
            "weight = 1.0\n"
            "[phases.params]\n"
            "ckpt_gb = 64.0\n"
        )
        spec = load_spec(str(path))
        assert spec.phases[0].param_dict()["ckpt_gb"] == 64.0

    def test_unknown_source_names_packs(self):
        with pytest.raises(
            SpecError, match="not a builtin pack name.*paper_mix"
        ):
            load_spec("definitely_not_a_pack")

    def test_unknown_pack(self):
        with pytest.raises(SpecError, match="unknown scenario pack"):
            get_pack("nope")


class TestPatterns:
    def test_catalog_contents(self):
        assert sorted(pattern_catalog()) == [
            "archetype", "checkpoint_storm", "epoch_training",
            "metadata_sweep", "paper", "producer_consumer",
        ]

    def test_describe_shape(self):
        desc = get_pattern("checkpoint_storm").describe()
        assert desc["name"] == "checkpoint_storm"
        by_name = {p["name"]: p for p in desc["params"]}
        assert by_name["ckpt_gb"]["minimum"] == pytest.approx(1e-3)
        assert by_name["ckpt_gb"]["maximum"] == 4096.0
        assert by_name["layer"]["choices"] == ["pfs", "insystem"]

    def test_unknown_pattern(self):
        with pytest.raises(SpecError, match="unknown pattern 'nope'"):
            get_pattern("nope")


class TestCompile:
    def test_paper_mix_compiles_to_the_builtin_mix(self):
        compiled = compile_spec("paper_mix", platform="summit")
        assert isinstance(compiled, CompiledSpec)
        direct = summit_mix()
        assert [w for w, _ in compiled.mix] == [w for w, _ in direct]
        assert [s.name for _, s in compiled.mix] == [
            s.name for _, s in direct
        ]
        # No overlays: the generator runs with its own defaults.
        assert compiled.machine is None
        assert compiled.perf is None
        assert compiled.config == GeneratorConfig()

    def test_custom_phase_archetype_named_after_phase(self):
        compiled = compile_spec(minimal_spec(), platform="cori")
        assert [s.name for _, s in compiled.mix] == ["storm"]
        weight, spec = compiled.mix[0]
        assert weight == 1.0
        assert {g.name for g in spec.groups} == {"ckpt", "ckpt_logs"}

    def test_platform_required_somewhere(self):
        with pytest.raises(SpecError, match="platform.*pass platform="):
            compile_spec(minimal_spec())

    def test_spec_platform_wins_over_argument(self):
        compiled = compile_spec(
            minimal_spec(platform="cori"), platform="summit"
        )
        assert compiled.platform == "cori"

    def test_spec_scale_wins_over_argument(self):
        compiled = compile_spec(
            minimal_spec(scale=2e-4), platform="summit", scale=1e-3
        )
        assert compiled.config.scale == 2e-4

    def test_duplicate_archetype_name_across_phases(self):
        data = minimal_spec()
        data["phases"] = [
            {"name": "paper_a", "pattern": "paper", "weight": 0.5},
            # The paper pattern emits the builtin archetype names, so a
            # second paper phase collides on every one of them.
            {"name": "paper_b", "pattern": "paper", "weight": 0.5},
        ]
        with pytest.raises(
            SpecError,
            match=r"phases\[1\]: compiles to archetype .* already produced "
            r"by phases\[0\]",
        ):
            compile_spec(data, platform="summit")

    def test_archetype_pattern_unknown_name(self):
        data = minimal_spec()
        data["phases"] = [
            {"name": "solo", "pattern": "archetype", "weight": 1.0,
             "params": {"name": "bb_exclusive"}},
        ]
        with pytest.raises(
            SpecError,
            match=r"phases\[0\]\.params\.name: unknown summit archetype "
            r"'bb_exclusive'.*sim_checkpoint",
        ):
            compile_spec(data, platform="summit")
        compiled = compile_spec(data, platform="cori")
        assert compiled.mix[0][1].name == "bb_exclusive"

    def test_intensity_scales_files_per_run(self):
        base = compile_spec(minimal_spec(), platform="summit")
        data = minimal_spec()
        data["phases"][0]["intensity"] = 2.0
        boosted = compile_spec(data, platform="summit")
        for (_, a), (_, b) in zip(base.mix, boosted.mix):
            for ga, gb in zip(a.groups, b.groups):
                assert gb.files_per_run == pytest.approx(
                    2.0 * ga.files_per_run
                )

    def test_fault_overlay_degrades_machine_and_perf(self):
        compiled = compile_spec("degraded_ost_month", platform="summit")
        assert compiled.machine is not None
        assert compiled.perf is not None
        healthy = get_platform("summit").layers["pfs"]
        degraded = compiled.machine.layers["pfs"]
        assert degraded.server_count < healthy.server_count
        # The in-system layer is untouched by a pfs fault.
        assert (
            compiled.machine.layers["insystem"].server_count
            == get_platform("summit").layers["insystem"].server_count
        )

    def test_contention_overlay_reshapes_perf_only(self):
        compiled = compile_spec("noisy_neighbor", platform="summit")
        assert compiled.machine is None
        assert compiled.perf is not None
        crowded = compiled.perf.contention["pfs"]
        base = ContentionModel.for_layer_kind("pfs")
        # More interfering load -> less of the layer left for the job.
        assert crowded.mean_fraction() < base.mean_fraction()

    def test_fault_magnitude_override(self):
        data = minimal_spec(
            overlays={
                "fault": {
                    "layer": "pfs", "preset": "rebuild-storm",
                    "servers_offline": 0.5,
                }
            }
        )
        halved = compile_spec(data, platform="summit")
        stock = compile_spec(
            minimal_spec(
                overlays={"fault": {"layer": "pfs",
                                    "preset": "rebuild-storm"}}
            ),
            platform="summit",
        )
        assert (
            halved.machine.layers["pfs"].server_count
            < stock.machine.layers["pfs"].server_count
        )


class TestPaperMixDifferential:
    """A compiled spec generates what the one-shot path does."""

    def test_compiled_generate_matches_generate_from_spec(self):
        compiled = compile_spec(
            "paper_mix", platform="summit", scale=1e-4
        )
        a = compiled.generate(seed=11)
        b = generate_from_spec(
            "paper_mix", platform="summit", scale=1e-4, seed=11
        )
        assert_stores_identical(a, b, "compiled vs one-shot")
