"""``fleet_whatif``: a month catalog queried as one fleet, then what-if'd.

Inputs (built untimed, in a child interpreter): a catalog of three
summit month stores of 164k rows each, drawn from seeds ``seed``,
``seed + 1`` and ``seed + 2``. Every round loads the catalog into
``FLEET_PASSES`` cold ``FederationExecutor(max_workers=2)`` in turn (the
set-up) and sends each

* the six foldable queries, answered by scatter-reduce,
* a few non-foldable exhibits, answered on the ``merge_stores`` merged
  store, whose build is timed on its own,
* member ``compare`` requests;

then runs a what-if ``sweep(jobs=1)`` over a stripe-factor grid on the
first member, plus one ``run_query`` point for each other scenario.
Federation, merge and what-if do the work; serving and streaming do none.

Fleet metrics are medians over the cold executors of the run, the what-if
rate is the median over rounds: every round sees the same data, so the
median keeps a burst of machine noise from moving the run's figure.
"""

from __future__ import annotations

import gc
import time

from perfbench.common import FOLDABLE, median, peak_rss_mb
from perfbench.metrics import WHATIF_SCENARIOS

MERGED = ("table2", "table5", "fig9")
COMPARES = (("table3", "m0", "m1"), ("table5", "m1", "m2"), ("fig7", "m0", "m2"))
STRIPE_FACTORS = (0.5, 2.0, 4.0, 8.0)
OTHER_SCENARIOS = tuple(s for s in WHATIF_SCENARIOS if s != "stripe")
WHATIF_MEMBER = "m0"
#: Cold executors per round. The fleet queries take a tenth of a round's
#: what-if time, so each round repeats them to sample them as often.
FLEET_PASSES = 3
#: Catalog load + executor construction is about a millisecond; each
#: round repeats it this many times and the run reports the median.
SETUP_REPEATS = 5


def _neutral(report) -> bool:
    return (
        report.outcome == report.baseline
        and report.moved_files == 0
        and all(report.time_ratio(layer, d) == 1.0
                for layer in ("pfs", "insystem") for d in ("read", "write"))
    )


def _fleet_pass(bench, catalog_path: str, unit: int, setup_s: list, counters_seen: list):
    """One cold executor through the fleet query set.

    The merged-store build is charged to the first merged request, the
    one a client would wait on. Returns (fleet seconds, slowest request
    seconds, merge seconds, the what-if member's store).
    """
    from repro.api import load_catalog
    from repro.federation import FederationExecutor

    tracer = bench.tracer
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        executor = FederationExecutor(load_catalog(catalog_path), max_workers=2)
        setup_s.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            executor.close()
    requests: list[float] = []
    try:
        members = executor.select({})
        for name in FOLDABLE:
            with tracer.span("federation.scatter", round=unit, query=name) as sp:
                executor.query(name)
            requests.append(sp.seconds)
        with tracer.span("federation.merge", round=unit) as merge:
            executor.merged_store(members)
        for i, name in enumerate(MERGED):
            with tracer.span("federation.merged", round=unit, query=name) as sp:
                executor.query(name)
            requests.append(sp.seconds + (merge.seconds if i == 0 else 0.0))
        for name, a, b in COMPARES:
            with tracer.span("federation.compare", round=unit, query=name) as sp:
                executor.compare(name, a, b)
            requests.append(sp.seconds)
        counters_seen.append(executor.stats()["counters"])
        store = executor.member_store(WHATIF_MEMBER)
    finally:
        executor.close()
    bench.outcome.op()
    return sum(requests), max(requests), merge.seconds, store


def run(bench) -> dict:
    from repro.api import load_catalog, run_query
    from repro.federation import FederationExecutor
    from repro.serve.registry import default_registry, serialize_result
    from repro.store.merge import merge_stores
    from repro.whatif import sweep

    tracer, outcome = bench.tracer, bench.outcome
    inputs = bench.prepare("fleet_whatif")
    catalog_path = str(bench.tmp / "fleet.json")
    points_per_round = len(STRIPE_FACTORS) + len(OTHER_SCENARIOS)

    setup_s: list[float] = []
    passes = {False: [], True: []}  # traced -> [(fleet s, slowest s, merge s)]
    whatif_s = {False: [], True: []}  # traced -> [what-if seconds per round]
    counters_seen: list[dict] = []
    deadline = time.perf_counter() + bench.loop_seconds
    unit = 0
    while unit < (2 if bench.trace else 1) or time.perf_counter() < deadline:
        traced = bench.trace and unit % 2 == 1
        # A store and its analysis context reference each other, so the
        # last round's stores are only freed by a cyclic collection.
        gc.collect()
        tracer.enabled = traced
        with tracer.span("bench.round", round=unit):
            for _ in range(FLEET_PASSES):
                *fleet, store = _fleet_pass(bench, catalog_path, unit, setup_s, counters_seen)
                passes[traced].append(tuple(fleet))

            with tracer.span("whatif.sweep", round=unit) as sw:
                reports = sweep(store, "stripe", [{"factor": f} for f in STRIPE_FACTORS], jobs=1)
            whatif = sw.seconds
            outcome.check(len(reports) == len(STRIPE_FACTORS), "stripe sweep lost points")
            for scenario in OTHER_SCENARIOS:
                with tracer.span("whatif.point", round=unit, scenario=scenario) as pt:
                    report = run_query(store, f"whatif_{scenario}")
                whatif += pt.seconds
                if scenario == "identity":
                    outcome.check(_neutral(report), f"round {unit}: whatif_identity is not neutral")
            outcome.op()
            del store
        whatif_s[traced].append(whatif)
        unit += 1
    tracer.enabled = False
    peak_mb = peak_rss_mb()

    # Output check: every scatter-reduce answer equals the same query on an
    # independently merged store.
    catalog = load_catalog(catalog_path)
    merged = merge_stores(
        [catalog.load_member(label) for label in catalog.labels],
        remap_log_ids=True, remap_job_ids=True,
    )
    registry = default_registry()
    with FederationExecutor(catalog, max_workers=2) as executor:
        for name in FOLDABLE:
            spec = registry[name]
            outcome.check(
                serialize_result(spec, executor.query(name)) == serialize_result(spec, run_query(merged, name)),
                f"scatter-reduce {name} differs from the merged store",
            )
    del merged

    plain, rates = passes[False], [points_per_round / w for w in whatif_s[False]]
    out = {
        "e2e": {
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_mb,
            "throughput_per_s": median(rates),
            "latency_ms": 1e3 * median(p[0] for p in plain),
            "tail_latency_ms": 1e3 * median(p[1] for p in plain),
            "update_ms": 1e3 * median(p[2] for p in plain),
        },
        "samples": {
            "setup_s": setup_s,
            "throughput_per_s": rates,
            "latency_ms": [1e3 * p[0] for p in plain],
            "tail_latency_ms": [1e3 * p[1] for p in plain],
            "update_ms": [1e3 * p[2] for p in plain],
        },
        "named": {
            "fleet_query_s": median(p[0] for p in plain),
            "whatif_points_per_s": median(rates),
            "fleet_passes": len(plain),
            "rounds": len(rates),
        },
        "rows": inputs["rows"],
    }
    if bench.trace:
        def per_round(traced):
            fleet = [p[0] for p in passes[traced]]
            return [sum(fleet[i * FLEET_PASSES:(i + 1) * FLEET_PASSES]) + w
                    for i, w in enumerate(whatif_s[traced])]

        out["overhead_pct"] = 100 * (median(per_round(True)) / median(per_round(False)) - 1)
        out["layers"] = _layers(tracer, counters_seen)
    return out


def _layers(tracer, counters_seen: list[dict]) -> dict:
    traced_rounds = sorted({sp.attrs["round"] for sp in tracer.spans if sp.name == "bench.round"})

    def per_round(*names, **match) -> float:
        return 1e3 * median(
            sum(sum(tracer.durations(n, round=r, **match)) for n in names) for r in traced_rounds
        )

    n = max(1, len(counters_seen))
    layers = {
        "federation.scatter_ms": per_round("federation.scatter") / FLEET_PASSES,
        "federation.merged_ms": per_round("federation.merge", "federation.merged") / FLEET_PASSES,
        "federation.compare_ms": per_round("federation.compare") / FLEET_PASSES,
        "federation.member_runs": sum(c["member_runs"] for c in counters_seen) / n,
        "federation.merged_fallback": sum(c["merged_fallback"] for c in counters_seen) / n,
        "whatif.sweep_ms": per_round("whatif.sweep"),
        "whatif.point_ms.stripe": per_round("whatif.sweep") / len(STRIPE_FACTORS),
    }
    for scenario in OTHER_SCENARIOS:
        layers[f"whatif.point_ms.{scenario}"] = per_round("whatif.point", scenario=scenario)
    return layers
