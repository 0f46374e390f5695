"""The names the workloads range over.

``BENCHMARK.json`` is the benchmark's metric schema (names, units,
directions, bounds); ``run.py`` reads it from there. Every workload
reports every end-to-end metric, so those metrics are slots each
workload fills with its own user-facing quantity:

================  ==================  =====================  =======================
metric            cold_report         serve_live             fleet_whatif
================  ==================  =====================  =======================
setup_s           spec load+compile   load+engine+warm pass  catalog load+executor
peak_rss_mb       process high-water  process high-water     process high-water
throughput_per_s  rows generated/s    queries served/s       what-if points/s
latency_ms        report per pass     query p50              fleet queries/executor
tail_latency_ms   slower report/pass  query p99              slowest request/executor
update_ms         save per pass       append -> refreshed    merged-store rebuild
================  ==================  =====================  =======================

Per-layer metrics of a layer a workload does not use read 0 there.
"""

from __future__ import annotations

PLATFORMS = ("summit", "cori")

#: Non-what-if registry queries ``cold_report`` runs, in report (registry)
#: order: all but ``LEFT_OUT``.
REPORT_QUERIES = (
    "table2", "table3", "table4", "table5", "table6", "fig3", "fig4", "fig5",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "users", "temporal",
    "variability", "tuning", "advise_staging", "advise_aggregation",
)

#: Registry queries no workload runs, with the reason.
LEFT_OUT = {
    "shapes": (
        "raises KeyError (no panel for layer='insystem' direction='write') on "
        "about 1 in 20 summit populations at scale 1e-3, e.g. seed 439062303, "
        "and its verdicts miss a paper shape on about 1 in 5 cori populations; "
        "its inputs are the other exhibits, which are timed"
    ),
}

WHATIF_SCENARIOS = ("identity", "stripe", "bb_offload", "ost_fault", "bb_drain", "contention")
