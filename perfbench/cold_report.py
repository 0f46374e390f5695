"""``cold_report``: the paper's own use, from workload spec to finished report.

Each pass generates summit and cori populations from the ``paper_mix``
spec at scale 1e-3, draws a store of ``REPORT_ROWS`` rows of whole jobs
from each, saves it as a raw ``.store``, then opens it with ``mmap`` and
runs every report query (``metrics.REPORT_QUERIES``) on a fresh context,
in report order. Generation, store IO and the cold analysis primitives
do the work; serving, streaming, federation and what-if do none.

The generator's jobs are heavy-tailed, so a population's size swings by
a third from seed to seed (summit: 1.0M to 2.0M rows). Generation is
reported as a rate (rows per second), which that swing does not move;
the draw to a fixed row budget keeps the saved and reported working set
the same size for every seed, as ``serve_live`` and ``fleet_whatif`` do.

One pass takes about ``PASS_S`` seconds on a 2-core box, so a run makes
``seconds / PASS_S`` passes and reports the median pass. Pass ``k``
generates from its own seed (``seed + k * DATA_SEED_STEP``), so a run's
median spans a few datasets.

Output checks, each pass and platform: the mmap-loaded tables equal the
saved ones byte for byte, and each foldable query's answer equals the
reduction (``federation.reduce``) of its answers on two job-disjoint
halves of the store, an independent path through the analysis.
"""

from __future__ import annotations

import gc
import shutil

import numpy as np

from perfbench.common import FOLDABLE, median, peak_rss_mb, sample_jobs
from perfbench.metrics import PLATFORMS, REPORT_QUERIES

SCALE = 1e-3
#: Rows of the saved and reported store, per platform; every population
#: seen at ``SCALE`` held more (summit 1.0M-2.0M, cori 0.51M-0.63M).
REPORT_ROWS = {"summit": 1_000_000, "cori": 500_000}
PASS_S = 10.0
DATA_SEED_STEP = 7919
#: Spec load + compile is a few milliseconds; its median over this many
#: repeats per platform and pass is the run's set-up time.
COMPILE_REPEATS = 100
#: A save takes about a tenth of a second; each pass saves each store
#: this many times and keeps the median.
SAVE_REPEATS = 5
CHUNK_ROWS = 65536


def _same_rows(a, b) -> bool:
    """Byte equality of two tables, compared a chunk at a time."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return all(
        a[i:i + CHUNK_ROWS].tobytes() == b[i:i + CHUNK_ROWS].tobytes()
        for i in range(0, len(a), CHUNK_ROWS)
    )


def _split_check(store, results: dict, rng, where: str, outcome) -> None:
    """Each foldable answer equals the reduction of its answers on two
    job-disjoint halves of ``store``."""
    from repro.api import run_query
    from repro.federation.reduce import reduce_results
    from repro.serve.registry import default_registry, serialize_result

    first = rng.permutation(len(store.jobs)) < len(store.jobs) // 2
    halves = [store.filter_jobs(first), store.filter_jobs(~first)]
    registry = default_registry()
    for name in FOLDABLE:
        if name not in results:  # the query raised, already a failed operation
            continue
        spec = registry[name]
        reduced = reduce_results(name, [run_query(h, name) for h in halves])
        outcome.check(
            serialize_result(spec, reduced) == serialize_result(spec, results[name]),
            f"{where}: {name} differs from the reduction over two halves",
        )


def run(bench) -> dict:
    from repro.api import compile_spec, load_spec, load_store, run_query, save_store

    tracer, outcome = bench.tracer, bench.outcome
    passes = max(1, round(bench.seconds / PASS_S))
    compile_s: list[float] = []
    # per pass: (rows generated, generate s, save s, report s, slower report s)
    plain, traced = [], []
    rows_seen: dict[str, list[int]] = {p: [] for p in PLATFORMS}
    peak_mb = 0.0

    for unit in range(passes * (2 if bench.trace else 1)):
        # Trace mode runs each pass twice on the same data, traced and
        # untraced, in alternating order.
        k = unit // 2 if bench.trace else unit
        is_traced = bench.trace and unit % 2 != k % 2
        tracer.enabled = is_traced
        gc.collect()
        generated = 0
        generate = save = report = slower = 0.0
        with tracer.span("bench.pass", index=k):
            for platform in PLATFORMS:
                for _ in range(COMPILE_REPEATS):
                    with tracer.span("spec.compile", platform=platform) as sp:
                        compiled = compile_spec(load_spec("paper_mix"), platform=platform, scale=SCALE)
                    compile_s.append(sp.seconds)
                data_seed = bench.seed + k * DATA_SEED_STEP
                with tracer.span("workloads.generate", platform=platform) as gen:
                    population = compiled.generate(data_seed)
                outcome.op()
                generate += gen.seconds
                generated += len(population.files)

                rng = np.random.default_rng(data_seed)
                store = sample_jobs(
                    population, REPORT_ROWS[platform],
                    SCALE * REPORT_ROWS[platform] / len(population.files), rng,
                )
                del population
                rows_seen[platform].append(len(store.files))

                path = str(bench.tmp / f"{platform}.store")
                saves = []
                for _ in range(SAVE_REPEATS):
                    shutil.rmtree(path, ignore_errors=True)
                    with tracer.span("store.save", platform=platform) as sv:
                        save_store(store, path, layout="raw")
                    saves.append(sv.seconds)
                    outcome.op()
                save += median(saves)

                saved = load_store(path, mmap=True)
                outcome.check(
                    _same_rows(saved.files, store.files) and _same_rows(saved.jobs, store.jobs),
                    f"{platform} pass {k}: saved store differs from the drawn one",
                )
                del saved, store

                results = {}
                with tracer.span("bench.report", platform=platform) as rep:
                    with tracer.span("store.load", platform=platform):
                        store = load_store(path, mmap=True)
                    for name in REPORT_QUERIES:
                        try:
                            with tracer.span(f"analysis.{name}", platform=platform):
                                results[name] = run_query(store, name)
                        except Exception as exc:  # a failed query fails the run's tally, not the run
                            outcome.op(False, f"{platform} pass {k}: {name} raised {type(exc).__name__}: {exc}")
                            continue
                        outcome.op()
                    hits, misses = store.analysis().cache_counts()
                    rep.add(memo_hits=hits, memo_misses=misses)
                report += rep.seconds
                slower = max(slower, rep.seconds)

                # Read before the halves below copy the store; in every run
                # measured, that copy stayed under the generation peak.
                peak_mb = max(peak_mb, peak_rss_mb())
                _split_check(store, results, rng, f"{platform} pass {k}", outcome)
                del store, results
                shutil.rmtree(path)
        (traced if is_traced else plain).append((generated, generate, save, report, slower))
    tracer.enabled = False

    gen_rate = [p[0] / p[1] for p in plain]
    out = {
        "e2e": {
            "setup_s": median(compile_s),
            "peak_rss_mb": peak_mb,
            "throughput_per_s": median(gen_rate),
            "latency_ms": 1e3 * median(p[3] for p in plain),
            "tail_latency_ms": 1e3 * median(p[4] for p in plain),
            "update_ms": 1e3 * median(p[2] for p in plain),
        },
        "samples": {
            "setup_s": compile_s,
            "throughput_per_s": gen_rate,
            "latency_ms": [1e3 * p[3] for p in plain],
            "tail_latency_ms": [1e3 * p[4] for p in plain],
            "update_ms": [1e3 * p[2] for p in plain],
        },
        "named": {
            "generate_rows_per_s": median(gen_rate),
            "report_s": median(p[3] for p in plain),
            "save_s": median(p[2] for p in plain),
            "passes": len(plain),
        },
        "rows": rows_seen,
    }
    if bench.trace:
        out["overhead_pct"] = 100 * (median(
            (t[1] + t[2] + t[3]) / (p[1] + p[2] + p[3]) for t, p in zip(traced, plain)
        ) - 1)
        out["layers"] = _layers(tracer)
    return out


def _layers(tracer) -> dict:
    layers = {"spec.compile_ms": 1e3 * median(tracer.durations("spec.compile"))}
    for p in PLATFORMS:
        layers[f"workloads.generate_s.{p}"] = median(tracer.durations("workloads.generate", platform=p))
        layers[f"store.save_s.{p}"] = median(tracer.durations("store.save", platform=p))
        layers[f"store.load_ms.{p}"] = 1e3 * median(tracer.durations("store.load", platform=p))
        for name in REPORT_QUERIES:
            layers[f"analysis.{name}_ms.{p}"] = 1e3 * median(tracer.durations(f"analysis.{name}", platform=p))
    reports = [sp for sp in tracer.spans if sp.name == "bench.report"]
    passes = max(1, len(reports) // len(PLATFORMS))
    layers["analysis.memo_hits"] = sum(sp.attrs["memo_hits"] for sp in reports) / passes
    layers["analysis.memo_misses"] = sum(sp.attrs["memo_misses"] for sp in reports) / passes
    return layers
