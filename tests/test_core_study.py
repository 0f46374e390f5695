"""Tests for the study pipeline and paper-shape checks."""

import pytest

from repro.core import CharacterizationStudy, StudyConfig
from repro.core import expectations as exp
from repro.core.compare import run_shape_checks
from repro.core.study import compute_results
from repro.errors import ConfigurationError
from repro.store.schema import LAYER_INSYSTEM


class TestStudyConfig:
    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.platforms == ("summit", "cori")
        assert 0 < cfg.scale <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(scale=0)
        with pytest.raises(ConfigurationError):
            StudyConfig(platforms=())
        with pytest.raises(ConfigurationError):
            StudyConfig(platforms=("summit", "theta"))


class TestStudyPipeline:
    def test_store_cached(self, study):
        assert study.store("summit") is study.store("summit")

    def test_results_cached(self, study):
        assert study.run("summit") is study.run("summit")

    def test_unknown_platform(self, study):
        with pytest.raises(ValueError):
            study.store("frontier")

    def test_all_exhibits_populated(self, study):
        r = study.run("cori")
        for attr in ("table2", "table3", "table4", "table5", "table6",
                     "fig6", "fig7", "fig8", "fig10"):
            assert getattr(r, attr) is not None, attr
        for attr in ("fig3", "fig4", "fig9", "fig11_12"):
            assert getattr(r, attr), attr

    def test_render_mentions_every_exhibit(self, study):
        text = study.render("summit")
        for token in ("Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
                      "Figure 3", "Figure 4", "Figure 5", "Figure 6",
                      "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                      "Figure 11"):
            assert token in text, token
        assert "Figure 12" in study.render("cori")


class TestShapeChecks:
    """The headline reproduction result: every paper shape holds."""

    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_all_shapes_pass(self, study, platform):
        checks = study.shape_checks(platform)
        assert len(checks) >= 14
        failures = [str(c) for c in checks if not c.passed]
        assert not failures, "\n".join(failures)

    def test_missing_insystem_write_panel_skips_its_check(
        self, summit_store_small
    ):
        """A population with no SCNL writes has no Figure 11 SCNL write
        panel; its check is skipped instead of raising KeyError."""
        files = summit_store_small.files
        scnl_writes = (files["layer"] == LAYER_INSYSTEM) & (
            files["bytes_written"] > 0
        )
        store = summit_store_small.filter(~scnl_writes)
        results = compute_results(store)
        panels = {(p.layer, p.direction) for p in results.fig11_12}
        assert ("insystem", "write") not in panels
        checks = run_shape_checks(results)
        assert checks
        assert not [c for c in checks if c.name.startswith("SCNL writes")]

    def test_checks_cover_all_exhibit_families(self, study):
        exhibits = {c.exhibit for c in study.shape_checks("summit")}
        exhibits |= {c.exhibit for c in study.shape_checks("cori")}
        for family in ("Table 3", "Table 4", "Table 5", "Table 6",
                       "Figure 3", "Figure 4", "Figure 6", "Fig 11/12"):
            assert any(family in e for e in exhibits), family


class TestExpectations:
    def test_table3_internally_consistent(self):
        # Table 2's file totals equal the Table 3 layer sums (the paper's
        # Table 2 'Files' column is transposed in some renderings; our
        # constants use the §3.1 text numbers).
        for platform in ("summit", "cori"):
            t3 = exp.TABLE3[platform]
            total = t3["insystem"][0] + t3["pfs"][0]
            assert total == pytest.approx(exp.TABLE2[platform]["files"], rel=0.01)

    def test_ratios_match_quoted(self):
        t3 = exp.TABLE3["cori"]
        assert t3["pfs"][0] / t3["insystem"][0] == pytest.approx(28.87, rel=0.01)
        assert t3["pfs"][1] / t3["pfs"][2] == pytest.approx(6.58, rel=0.01)

    def test_cori_table4_shares(self):
        t4 = exp.TABLE4["cori"]
        pfs_w = t4["pfs"][1] / (t4["pfs"][1] + t4["insystem"][1])
        assert pfs_w == pytest.approx(exp.CORI_PFS_WRITE_SHARE, abs=0.001)
        cbb_r = t4["insystem"][0] / (t4["insystem"][0] + t4["pfs"][0])
        assert cbb_r == pytest.approx(exp.CORI_CBB_READ_SHARE, abs=0.001)

    def test_table5_cbb_fraction(self):
        ins, both, pfs = exp.TABLE5["cori"]
        assert ins / (ins + both + pfs) == pytest.approx(
            exp.CORI_CBB_ONLY_FRACTION, abs=0.001
        )
