"""Tests of the benchmark itself.

Run from the repository root (not part of the tier-1 suite; the cold
report alone takes a quarter of a minute and over 1 GB)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench.metrics import LEFT_OUT, REPORT_QUERIES, WHATIF_SCENARIOS
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_schema_covers_every_query_and_scenario():
    from repro.api import list_queries
    from repro.whatif import scenario_catalog

    assert set(REPORT_QUERIES) | set(LEFT_OUT) == {q for q in list_queries() if not q.startswith("whatif_")}
    assert not set(REPORT_QUERIES) & set(LEFT_OUT)
    assert set(WHATIF_SCENARIOS) == set(scenario_catalog())


def test_metrics_must_match_the_schema():
    with pytest.raises(ValueError):
        bench_run._metrics({"a": 1.0, "b": 2.0}, {"a": "s"})
    with pytest.raises(ValueError):
        bench_run._metrics({}, {"a": "s"})
    assert bench_run._metrics({}, {"a": "s"}, absent=0.0) == {"a": {"value": 0.0, "unit": "s"}}


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("bench.outer"):
        time.sleep(0.02)
        with tracer.span("analysis.inner"):
            time.sleep(0.03)
    own = tracer.layer_self_seconds()
    outer = tracer.durations("bench.outer")[0]
    inner = tracer.durations("analysis.inner")[0]
    assert own["analysis"] == pytest.approx(inner)
    assert own["bench"] == pytest.approx(outer - inner)
    [child] = [s for s in tracer.spans if s.name == "analysis.inner"]
    [parent] = [s for s in tracer.spans if s.name == "bench.outer"]
    assert child.parent == parent.id


def _children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench_run.WORKLOADS))
def test_run_reports_every_metric_and_leaves_nothing_running(workload, trace, capsys):
    assert bench_run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end, per_layer = bench_run.load_schema()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (per_layer if trace else end_to_end)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    assert [t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon] == []
    assert not _children_left()
    assert not list(bench_run.WORK_DIR.glob("tmp-*"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
