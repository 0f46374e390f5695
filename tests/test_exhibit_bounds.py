"""Exhibit bounds the paper-shape checks do not already imply.

``test_core_study.py::TestShapeChecks`` runs ``core.compare`` on the
reference population (seed 20220627, scale 1e-3). The bounds here are
the rest of what EXPERIMENTS.md claims about that population: tighter
or additional limits on the same exhibits, and the follow-on analyses
(calibration, the recommendations, the facility view). Every exhibit
comes from the session ``study``, so nothing is generated twice.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import bandwidth_variability, median_iqr_ratio
from repro.analysis.performance import panel
from repro.core import expectations as exp
from repro.core.calibration import calibration_report, miscalibrated
from repro.iosim.replay import FacilityReplay
from repro.optimize import assess_staging, find_aggregation_opportunities
from repro.platforms import cori, summit

MACHINES = {"summit": summit, "cori": cori}


@pytest.fixture(scope="module")
def summit_r(study):
    return study.run("summit")


@pytest.fixture(scope="module")
def cori_r(study):
    return study.run("cori")


def _by_key(curves):
    return {(c.platform, c.layer, c.direction): c for c in curves}


class TestTables:
    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_table2_counts_near_the_paper(self, study, platform):
        r = study.run(platform).table2
        paper = exp.TABLE2[platform]
        assert 0.4 < r.jobs_scaled / paper["jobs"] < 2.5
        assert 0.4 < r.files_scaled / paper["files"] < 2.5
        assert 0.3 < r.logs_scaled / paper["logs"] < 3.0

    def test_table3_dominance_margins(self, summit_r, cori_r):
        assert cori_r.table3.pfs.read_write_ratio() > 2.0
        assert summit_r.table3.pfs_over_insystem_files() > 1.5
        assert cori_r.table3.pfs_over_insystem_files() > 10

    def test_table4_summit_giants_are_pfs_reads(self, summit_r):
        assert summit_r.table4.counts["pfs"][0] > 0

    def test_table6_stdio_shares(self, summit_r, cori_r):
        assert 0.25 < summit_r.table6.stdio_share() < 0.55
        assert 0.08 < cori_r.table6.stdio_share() < 0.22


class TestFigures:
    def test_fig4_small_requests_dominate(self, summit_r, cori_r):
        pfs_read = _by_key(summit_r.fig4)[("summit", "pfs", "read")]
        assert pfs_read.percent_in_bin("0_100") > 30
        assert pfs_read.percent_in_bin("1K_10K") > 30
        # PFS reads are small on both platforms; collectively buffered
        # writes and burst-buffer traffic use MB-scale calls, so every
        # curve is held at the 100 MB mark.
        for c in summit_r.fig4 + cori_r.fig4:
            if c.direction == "read" and c.layer == "pfs":
                assert c.cumulative_percent[4] > 75, (c.platform, c.layer)
            assert c.cumulative_percent[7] > 95, (
                c.platform, c.layer, c.direction,
            )

    def test_fig5_large_jobs_follow_the_system_trend(self, summit_r, cori_r):
        large = _by_key(summit_r.fig5 + cori_r.fig5)
        every = _by_key(summit_r.fig4 + cori_r.fig4)
        for platform in ("summit", "cori"):
            c = large.get((platform, "pfs", "read"))
            assert c is not None, f"{platform} large jobs missing"
            baseline = every[(platform, "pfs", "read")]
            assert abs(
                c.cumulative_percent[4] - baseline.cumulative_percent[4]
            ) < 10
            assert c.cumulative_percent[4] > 60
        # "More large requests to the in-system storage layer": its read
        # curve rises later than the PFS read curve.
        for platform, bin_idx in (("summit", 2), ("cori", 4)):
            pfs = large.get((platform, "pfs", "read"))
            ins = large.get((platform, "insystem", "read"))
            if pfs is not None and ins is not None:
                assert (
                    ins.cumulative_percent[bin_idx]
                    < pfs.cumulative_percent[bin_idx]
                )

    def test_fig7_domains_use_the_insystem_layer(self, summit_r, cori_r):
        assert len([d for d in summit_r.fig7.volumes if d]) >= 3
        assert len([d for d in cori_r.fig7.volumes if d]) >= 8
        assert cori_r.fig7.domain_share("physics") > 0.25

    def test_fig8_stdio_files_lean_on_the_insystem_layer(self, summit_r):
        for cls in ("read-only", "write-only"):
            assert (
                summit_r.fig8.insystem_share(cls)
                > summit_r.fig6.insystem_share(cls)
            ), cls

    def test_fig9_stdio_transfers_are_small(self, summit_r):
        by = {(c.interface, c.layer, c.direction): c for c in summit_r.fig9}
        stdio_pfs_r = by[("STDIO", "pfs", "read")]
        assert by[("STDIO", "insystem", "read")].percent_below(1e9) >= 95.0
        assert stdio_pfs_r.percent_below(1e9) >= 98.0
        assert by[("STDIO", "pfs", "write")].percent_below(1e9) >= 95.0
        posix_pfs_r = by[("POSIX", "pfs", "read")]
        assert (
            stdio_pfs_r.percent_below(100e6)
            >= posix_pfs_r.percent_below(100e6) - 5
        )

    def test_fig10_stdio_spans_domains(self, summit_r, cori_r):
        assert len([d for d in summit_r.fig10.volumes if d]) >= 8
        assert len([d for d in cori_r.fig10.volumes if d]) >= 8
        total_r = sum(r for r, _ in summit_r.fig10.volumes.values())
        total_w = sum(w for _, w in summit_r.fig10.volumes.values())
        assert total_r > 0 and total_w > 0

    def test_fig11_summit_posix_beats_stdio(self, summit_r):
        pfs_read = panel(summit_r.fig11_12, "pfs", "read")
        small = pfs_read.median_speedup("100M_1G")
        assert small > 1.5
        big = pfs_read.median_speedup("100G_1T")
        if math.isfinite(big):
            assert big > small * 0.8 or big > 5.0
        scnl_read = panel(summit_r.fig11_12, "insystem", "read")
        assert scnl_read.median_speedup("100M_1G") > 1.5

    def test_fig12_cori_posix_beats_stdio(self, cori_r):
        pfs_read = panel(cori_r.fig11_12, "pfs", "read")
        reads = [
            pfs_read.median_speedup(b)
            for b in ("100M_1G", "1G_10G", "10G_100G")
        ]
        finite_reads = [r for r in reads if math.isfinite(r)]
        assert finite_reads and all(r > 1.5 for r in finite_reads)
        pfs_write = panel(cori_r.fig11_12, "pfs", "write")
        writes = [pfs_write.median_speedup(b) for b in ("100M_1G", "1G_10G")]
        finite_writes = [r for r in writes if math.isfinite(r)]
        assert finite_writes and all(r > 1.2 for r in finite_writes)


class TestBeyondThePaper:
    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_calibration_within_3x(self, study, platform):
        report = calibration_report(study.store(platform))
        bad = miscalibrated(report, factor=3.0)
        assert not bad, (platform, [r.quantity for r in bad])

    def test_aggregation_opportunities(self, study):
        opps = find_aggregation_opportunities(study.store("summit"), summit())
        assert opps
        assert all(o.speedup >= 1.0 for o in opps)
        # Tiny POSIX PFS reads gain an order of magnitude.
        assert max(o.speedup for o in opps if o.direction == "read") > 10

    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_staging_opportunity(self, study, platform):
        a = assess_staging(
            study.store(platform), MACHINES[platform](), sample=100_000
        )
        assert a.stageable_file_fraction > 0.8  # the paper's >90% finding
        assert a.in_job_speedup > 1.0

    def test_facility_replay(self, study):
        replays = [
            FacilityReplay(study.store(p), MACHINES[p]())
            for p in ("summit", "cori")
        ]
        # The PFS carries far more relative load than the in-system
        # layer on both platforms.
        for replay in replays:
            pfs = sum(
                replay.demand("pfs", d).mean_utilization()
                for d in ("write", "read")
            )
            ins = sum(
                replay.demand("insystem", d).mean_utilization()
                for d in ("write", "read")
            )
            assert pfs > 3 * ins, replay.store.platform
        # Summit's write demand is bursty: peaks far above the mean.
        pfs_w = replays[0].demand("pfs", "write")
        assert pfs_w.peak_utilization() > 3 * pfs_w.mean_utilization()

    def test_bandwidth_variability(self, study):
        summit_cells = bandwidth_variability(study.store("summit"))
        cori_cells = bandwidth_variability(study.store("cori"))
        # Box plots span multiples under production load.
        assert median_iqr_ratio(summit_cells) > 1.5
        assert median_iqr_ratio(cori_cells) > 1.5
        # PFS populations vary more than in-system ones.
        pfs = [c.iqr_ratio for c in summit_cells if c.layer == "pfs"]
        ins = [c.iqr_ratio for c in summit_cells if c.layer == "insystem"]
        if pfs and ins:
            assert sorted(pfs)[len(pfs) // 2] > sorted(ins)[len(ins) // 2]
