"""Alternating A/B pairs of ``perfbench`` runs from two checkouts.

Usage, from anywhere (``make bench-pairs A=... B=...`` wraps it)::

    python3 tools/bench_pairs.py BASE_DIR CHANGE_DIR --pairs 10 \\
        [--workloads fleet_whatif] [--trace 1]

Each pair runs every workload once from each checkout, one run at a
time, as ``python3 perfbench/run.py --workload W --seed 7 --seconds T
--trace X`` with the checkout as the working directory. The workloads
and ``T`` (``run_seconds``) come from B's ``BENCHMARK.json``, so a
comparison runs what the benchmark runs. The order alternates: even
pairs run A first, odd pairs B first, so a drift over the session or a
first-run effect lands on both sides alike.

For each workload and end-to-end metric (per-layer metric with
``--trace 1``) it prints A's and B's median and
quartiles, the ratio of the medians, how many pairs B won (by the
metric's ``better`` direction in B's ``BENCHMARK.json``), and whether
the medians are further apart than A's quartile distance. Give the same
commit twice (two checkouts of one SHA, or one directory twice) for the
A/A mode: its spread is the noise floor below which no change is
resolved. The header names both SHAs, the pair count and the host's
``usable_cores``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Every run uses one seed, so both sides build the same inputs.
SEED = 7
#: A run builds its inputs (up to 600 s) and then runs for ``run_seconds``.
RUN_TIMEOUT_S = 1200


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_benchmark(checkout: Path) -> dict:
    """A checkout's ``BENCHMARK.json``."""
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def better_directions(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> ``"higher"`` or ``"lower"``: the end-to-end metrics,
    or the per-layer ones for a traced run."""
    return {m["name"]: m["better"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(checkout: Path, workload: str, seconds: int, trace: int) -> dict:
    """One ``perfbench`` run: its metric values, checks and environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"{checkout} {workload} exited {done.returncode}: {tail}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(
        (json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")),
        {},
    )
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "environment": detail.get("environment", {}),
    }


def summarize(a_runs: list[dict], b_runs: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric over the paired runs ``a_runs[i], b_runs[i]``.

    A metric that reads 0 in every run (a layer the workload does not
    use) gets no row.
    """
    rows = []
    for name, direction in better.items():
        a = [r["metrics"][name] for r in a_runs]
        b = [r["metrics"][name] for r in b_runs]
        if not any(a + b):
            continue
        qa, qb = quartiles(a), quartiles(b)
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        rows.append({
            "metric": name,
            "better": direction,
            "a": qa,
            "b": qb,
            "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
            "wins": wins,
            "pairs": len(a),
            "past_iqr": abs(qb[1] - qa[1]) > qa[2] - qa[0],
        })
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _label(run: dict, checkout: Path) -> str:
    """A run's commit, or its directory when the checkout is no git repository."""
    sha = run["environment"].get("git_sha", "unknown")
    return sha[:10] if sha != "unknown" else str(checkout)


def report(workload: str, a_runs: list[dict], b_runs: list[dict], rows: list[dict],
           a_dir: Path, b_dir: Path) -> str:
    label_a, label_b = _label(a_runs[0], a_dir), _label(b_runs[0], b_dir)
    cores = sorted({r["environment"].get("usable_cores") for r in a_runs + b_runs}, key=str)
    mode = " (A/A)" if label_a == label_b else ""
    failed = sum(r["failed"] for r in a_runs + b_runs)
    width = max([len("metric")] + [len(row["metric"]) for row in rows]) + 2
    lines = [
        f"{workload}: {len(a_runs)} pairs, A {label_a} B {label_b}{mode}, "
        f"usable_cores {', '.join(map(str, cores))}, failed ops {failed}",
        f"  {'metric':<{width}}{'better':<8}{'A median [q1, q3]':<36}{'B median [q1, q3]':<36}"
        f"{'B/A':>8}{'B wins':>9}  past IQR(A)",
    ]
    for row in rows:
        lines.append(
            f"  {row['metric']:<{width}}{row['better']:<8}{_fmt(row['a']):<36}{_fmt(row['b']):<36}"
            f"{row['ratio']:>7.3f}x{row['wins']:>6}/{row['pairs']:<2}  "
            f"{'yes' if row['past_iqr'] else 'no'}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="base checkout (A)")
    parser.add_argument("b", type=Path, help="changed checkout (B); the same SHA for A/A")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated workload names; default every one "
                             "in B's BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 compares the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    a_dir, b_dir = args.a.resolve(), args.b.resolve()
    for checkout in (a_dir, b_dir):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    spec = load_benchmark(b_dir)
    known = [w["name"] for w in spec["workloads"]]
    workloads = [w for w in args.workloads.split(",") if w] or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {', '.join(known)}")

    better = better_directions(spec, args.trace)
    runs = {w: {"a": [], "b": []} for w in workloads}
    for i in range(args.pairs):
        order = (("a", a_dir), ("b", b_dir)) if i % 2 == 0 else (("b", b_dir), ("a", a_dir))
        for workload in workloads:
            for side, checkout in order:
                runs[workload][side].append(
                    run_once(checkout, workload, spec["run_seconds"], args.trace))
                print(f"pair {i + 1}/{args.pairs} {workload} {side.upper()} done",
                      file=sys.stderr, flush=True)
    for workload in workloads:
        a_runs, b_runs = runs[workload]["a"], runs[workload]["b"]
        rows = summarize(a_runs, b_runs, better)
        print(report(workload, a_runs, b_runs, rows, a_dir, b_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
