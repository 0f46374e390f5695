"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import main


class TestShapes:
    def test_shapes_exit_zero_on_pass(self, capsys):
        rc = main(
            ["shapes", "--platform", "cori", "--scale", "2e-4", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert "shapes reproduced" in out
        # Small scales may flake a check; the exit code must reflect it.
        assert rc in (0, 1)
        if rc == 0:
            assert "[FAIL]" not in out


class TestStudy:
    def test_study_renders_tables(self, capsys):
        rc = main(
            ["study", "--platform", "summit", "--scale", "1e-4", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        for token in ("Table 2", "Table 6", "Figure 11"):
            assert token in out


class TestGenerateAnalyze:
    def test_round_trip(self, tmp_path, capsys):
        store_path = str(tmp_path / "year.npz")
        rc = main(
            ["generate", "--platform", "cori", "--scale", "5e-5",
             "--seed", "3", "--out", store_path]
        )
        assert rc == 0
        for exhibit in ("table2", "table3", "table6", "fig3", "fig11"):
            rc = main(["analyze", store_path, "--exhibit", exhibit])
            assert rc == 0
        out = capsys.readouterr().out
        assert "cori" in out

    def test_analyze_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.npz")
        assert main(["analyze", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("analyze: ") and missing in err

    def test_query_closed_port(self, capsys):
        """An unreachable server is a one-line error, not a traceback."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # Nothing listens on the port once the probe socket is closed.
        assert main(["query", "table3", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("query: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["generate", "study", "shapes"])
    def test_generation_takes_no_jobs_flag(self, command, tmp_path, capsys):
        """Generation runs serially; only what-if fans out."""
        argv = [command, "--scale", "5e-5", "--jobs", "2"]
        if command == "generate":
            argv += ["--out", str(tmp_path / "s.npz")]
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestAdviseReplay:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "year.npz")
        assert main(
            ["generate", "--platform", "summit", "--scale", "2e-4",
             "--seed", "9", "--out", path]
        ) == 0
        return path

    def test_advise_staging(self, store_path, capsys):
        assert main(["advise", store_path, "--advisor", "staging"]) == 0
        out = capsys.readouterr().out
        assert "stageable PFS files" in out

    def test_advise_aggregation(self, store_path, capsys):
        assert main(["advise", store_path, "--advisor", "aggregation"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_replay(self, store_path, capsys):
        assert main(["replay", store_path, "--bin-hours", "6"]) == 0
        out = capsys.readouterr().out
        assert "Facility replay" in out and "pfs" in out

    @pytest.mark.parametrize("command", ["advise", "replay"])
    def test_corrupt_store_is_a_message(self, command, tmp_path, capsys):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a store")
        assert main([command, str(garbage)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {garbage}: corrupt store file")


class TestIor:
    def test_ior_output(self, capsys):
        rc = main(
            ["ior", "--platform", "summit", "--layer", "insystem",
             "--api", "posix", "--tasks", "32", "--direction", "read"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "SCNL" in out and "/s" in out

    def test_ior_collective(self, capsys):
        rc = main(
            ["ior", "--api", "mpiio", "--collective", "--tasks", "128",
             "--transfer-size", "4MiB", "--direction", "write"]
        )
        assert rc == 0
        assert "MPIIO" in capsys.readouterr().out

    def test_bad_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSpecCli:
    """``generate --spec`` and the unified ``--json`` listing shape."""

    def test_generate_spec_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "pack.npz")
        rc = main(
            ["generate", "--spec", "bb_eviction_storm",
             "--platform", "summit", "--scale", "5e-5",
             "--seed", "3", "--out", path]
        )
        assert rc == 0
        assert "bb_eviction_storm" in capsys.readouterr().out
        assert main(["analyze", path, "--exhibit", "table3"]) == 0
        assert "summit" in capsys.readouterr().out

    def test_generate_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "probe.json"
        spec_path.write_text(json.dumps({
            "name": "probe",
            "phases": [{"name": "sweep", "pattern": "metadata_sweep",
                        "weight": 1.0}],
        }))
        out_path = str(tmp_path / "probe.npz")
        rc = main(
            ["generate", "--spec", str(spec_path), "--platform", "cori",
             "--scale", "5e-5", "--seed", "3", "--out", out_path]
        )
        assert rc == 0

    def test_generate_archetype_flag(self, tmp_path, capsys):
        path = str(tmp_path / "solo.npz")
        rc = main(
            ["generate", "--archetype", "sim_checkpoint",
             "--platform", "summit", "--scale", "5e-5",
             "--seed", "3", "--out", path]
        )
        assert rc == 0

    def test_generate_spec_and_archetype_conflict(self, tmp_path, capsys):
        rc = main(
            ["generate", "--spec", "paper_mix", "--archetype", "whatever",
             "--out", str(tmp_path / "x.npz")]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_generate_requires_out(self, capsys):
        rc = main(["generate", "--platform", "summit"])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_bad_spec_reports_field_path(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "name": "bad",
            "phases": [{"name": "p", "pattern": "checkpoint_storm",
                        "weight": 1.0, "params": {"ckpt_gb": 99999}}],
        }))
        rc = main(
            ["generate", "--spec", str(spec_path),
             "--out", str(tmp_path / "x.npz")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "phases[0].params.ckpt_gb" in err
        assert "<= 4096" in err

    def test_list_specs_text(self, capsys):
        assert main(["generate", "--list-specs"]) == 0
        out = capsys.readouterr().out
        assert "paper_mix" in out and "[pack]" in out
        assert "checkpoint_storm" in out and "[pattern]" in out

    @pytest.mark.parametrize("argv,listing", [
        (["generate", "--list-specs", "--json"], "specs"),
        (["analyze", "--list", "--json"], "queries"),
        (["whatif", "--list", "--json"], "scenarios"),
    ])
    def test_unified_listing_json_shape(self, argv, listing, capsys):
        import json

        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "listing"
        assert payload["listing"] == listing
        assert payload["items"], argv
        for item in payload["items"]:
            assert "name" in item and "title" in item

    def test_analyze_json_result(self, tmp_path, capsys):
        path = str(tmp_path / "year.npz")
        assert main(
            ["generate", "--platform", "summit", "--scale", "5e-5",
             "--seed", "3", "--out", path]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", path, "--exhibit", "table3", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "table"
        assert payload["rows"]
        assert payload["headers"][0] == "system"
