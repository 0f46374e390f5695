"""The pair runner's statistics, on made-up runs (no benchmark is run)."""

from __future__ import annotations

import pytest

from tools.bench_pairs import main, quartiles, report, summarize


def _run(sha: str, **metrics) -> dict:
    return {"metrics": metrics, "correct": True, "failed": 0,
            "environment": {"git_sha": sha, "usable_cores": 2}}


def test_quartiles_inclusive():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_wins_follow_the_better_direction():
    a = [_run("aaa", rate=10.0, ms=5.0), _run("aaa", rate=11.0, ms=5.0),
         _run("aaa", rate=12.0, ms=5.0)]
    b = [_run("bbb", rate=15.0, ms=4.0), _run("bbb", rate=10.0, ms=6.0),
         _run("bbb", rate=16.0, ms=5.0)]
    rows = {r["metric"]: r for r in summarize(a, b, {"rate": "higher", "ms": "lower"})}
    assert rows["rate"]["wins"] == 2 and rows["rate"]["pairs"] == 3
    assert rows["rate"]["ratio"] == pytest.approx(15.0 / 11.0)
    assert rows["rate"]["past_iqr"]
    # A tie is not a win; the medians are equal, inside any spread.
    assert rows["ms"]["wins"] == 1
    assert not rows["ms"]["past_iqr"]


def test_report_names_the_aa_mode(tmp_path):
    a = [_run("abcdef1234", rate=1.0)]
    rows = summarize(a, a, {"rate": "higher"})
    text = report("fleet_whatif", a, [_run("abcdef1234", rate=1.0)], rows,
                  tmp_path / "x", tmp_path / "y")
    assert "(A/A)" in text and "usable_cores 2" in text
    other = report("fleet_whatif", a, [_run("0123456789", rate=1.0)], rows,
                   tmp_path / "x", tmp_path / "y")
    assert "(A/A)" not in other
    # Without a git SHA the directories tell the sides apart.
    plain = [_run("unknown", rate=1.0)]
    assert "(A/A)" in report("w", plain, plain, rows, tmp_path, tmp_path)
    assert "(A/A)" not in report("w", plain, plain, rows, tmp_path / "x", tmp_path / "y")


def test_rejects_a_directory_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path), str(tmp_path), "--pairs", "1"])


def test_a_metric_that_reads_zero_everywhere_gets_no_row():
    a, b = [_run("aaa", used=2.0, unused=0.0)], [_run("bbb", used=1.0, unused=0.0)]
    rows = summarize(a, b, {"used": "lower", "unused": "lower"})
    assert [r["metric"] for r in rows] == ["used"]


def test_workloads_come_from_the_benchmark(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 30, "workloads": [{"name": "cold_report"}], '
        '"end_to_end": [], "per_layer": []}')
    with pytest.raises(SystemExit):
        main([str(tmp_path), str(tmp_path), "--workloads", "fleet_whatif"])
