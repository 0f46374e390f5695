"""One benchmark for the pipeline from workload spec to served exhibit.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_report --seed 7 --seconds 30 --trace 0

Workloads (each one process, ``jobs=1``, sized for 2 cores):

* ``cold_report``  -- generate, draw a fixed-size store, save, mmap load and
  run the report queries (``metrics.REPORT_QUERIES``);
* ``serve_live``   -- 2 closed-loop clients through ``QueryEngine`` while
  NDJSON appends land and ``refresh()`` re-warms the cache;
* ``fleet_whatif`` -- federated queries over a 3-member month catalog,
  then a what-if sweep and one point per other scenario.

With ``--trace 0`` the last stdout line holds every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric, taken from the
benchmark's own spans, and the tracing overhead. Lines before it carry
the details: the per-workload metric names, the within-run spread of
each metric, the output-check failures and an environment stamp.
Spans and details are also written under ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401  (fails fast, before any output, without the program)
from perfbench import cold_report, fleet_whatif, serve_live  # noqa: E402
from perfbench.common import Outcome, iqr_share  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

WORKLOADS = {
    "cold_report": cold_report.run,
    "serve_live": serve_live.run,
    "fleet_whatif": fleet_whatif.run,
}
WORK_DIR = ROOT / ".perfbench"
PREPARE_TIMEOUT_S = 600


def load_schema() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _metrics(values: dict, units: dict[str, str], *, absent: float | None = None) -> dict:
    """Every schema metric with its unit.

    A value the schema lacks is an error, and so is a schema metric with
    no value unless ``absent`` gives one.
    """
    unknown = set(values) - set(units)
    missing = set() if absent is not None else set(units) - set(values)
    if unknown or missing:
        raise ValueError(f"not in BENCHMARK.json: {sorted(unknown)}; no value: {sorted(missing)}")
    return {k: {"value": float(values.get(k, absent)), "unit": unit} for k, unit in units.items()}


@dataclass
class Bench:
    """What a workload gets: its inputs' seed, its length and its tools."""

    seed: int
    seconds: int
    trace: bool
    tmp: Path
    tracer: Tracer
    outcome: Outcome

    @property
    def loop_seconds(self) -> int:
        """Length of the timed loop: traced runs alternate traced and
        untraced units, so they run twice as long."""
        return self.seconds * (2 if self.trace else 1)

    def prepare(self, workload: str) -> dict:
        """Build this workload's inputs in a child interpreter (waited for)."""
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("prepare.py")), workload,
             "--seed", str(self.seed), "--seconds", str(self.loop_seconds), "--out", str(self.tmp)],
            check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        with open(self.tmp / "inputs.json", encoding="utf-8") as fh:
            return json.load(fh)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return done.stdout.strip() or "unknown"


def _environment(seed: int, rows: dict) -> dict:
    from repro.parallel import usable_cores

    return {
        "usable_cores": usable_cores(),
        "jobs": 1,
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }


def _leftovers() -> list[str]:
    """Non-daemon threads and child processes still around."""
    left = [
        f"thread {t.name}" for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon
    ]
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
        left.append(f"child process {pid}" if pid else "running child process")
    except ChildProcessError:
        pass
    return left


def _self_time_table(tracer: Tracer) -> tuple[str, dict]:
    """The table of self time by layer, and each layer's share in percent."""
    totals = tracer.layer_self_seconds()
    grand = sum(totals.values()) or 1.0
    lines = [f"{'layer':<12}{'self s':>10}{'share':>9}"]
    for layer, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12}{secs:>10.3f}{100 * secs / grand:>8.1f}%")
    return "\n".join(lines), {layer: 100 * secs / grand for layer, secs in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.parallel import shutdown_pools

    end_to_end, per_layer = load_schema()
    tmp = WORK_DIR / f"tmp-{args.workload}-{os.getpid()}"
    out_dir = WORK_DIR / "out"
    os.makedirs(tmp)
    os.makedirs(out_dir, exist_ok=True)
    bench = Bench(args.seed, args.seconds, bool(args.trace), tmp, Tracer(), Outcome())
    try:
        result = WORKLOADS[args.workload](bench)
    finally:
        shutdown_pools()
        shutil.rmtree(tmp, ignore_errors=True)
    left = _leftovers()
    bench.outcome.check(not left, f"left running: {left}")

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "named": result["named"],
        "spread": {k: iqr_share(v) for k, v in result["samples"].items()},
        "failures": bench.outcome.failures,
        "environment": _environment(args.seed, result["rows"]),
    }
    if args.trace:
        table, shares = _self_time_table(bench.tracer)
        # bench.* spans time the benchmark's own loop, not a program layer.
        layers = {f"self_pct.{k}": v for k, v in shares.items() if k != "bench"}
        layers.update(result["layers"])
        layers["trace.overhead_pct"] = result["overhead_pct"]
        # A layer the workload does not use reads 0.
        metrics = _metrics(layers, per_layer, absent=0.0)
        detail["tracing_overhead_pct"] = result["overhead_pct"]
        bench.tracer.write(str(out_dir / f"spans-{tag}.json"))
        print(f"self time by layer ({args.workload}, traced units only):\n{table}")
        print(f"tracing overhead: {result['overhead_pct']:+.2f}% against the untraced units")
    else:
        metrics = _metrics(result["e2e"], end_to_end)
    with open(out_dir / f"detail-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": bench.outcome.failed == 0,
        "attempted": bench.outcome.attempted,
        "failed": bench.outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
