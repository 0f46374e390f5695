#!/usr/bin/env python
"""Turn the paper's recommendations into actionable advice for a platform.

Runs all four optimization advisors over a synthetic Summit year:

* request aggregation (Recommendations 2/6) — where would middleware-level
  aggregation buy the most I/O time?
* data staging (Recommendation 3) — how much in-job time would staging the
  stageable PFS traffic through SCNL save?
* Lustre striping (§5 future work, priced on Cori) — what should the
  stripe counts be?
* flash wear (Recommendation 4) — which STDIO write streams would burn
  the most SSD if left unoptimized?

Run:  python examples/io_advisor.py
"""

from __future__ import annotations

import numpy as np

from repro.darshan.accumulate import OP_WRITE, make_ops
from repro.iosim.lustre import LustreFilesystem
from repro.optimize import (
    assess_staging,
    find_aggregation_opportunities,
    rank_flash_wear,
    recommend_striping,
)
from repro.platforms import cori, summit
from repro.units import GB, format_size
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator


def main() -> int:
    machine = summit()
    store = WorkloadGenerator("summit", GeneratorConfig(scale=2e-4)).generate(
        20220627, shadows=True
    )
    print(f"advising on {store!r}\n")

    # ---- aggregation ----------------------------------------------------
    print("== Recommendation 2/6: request aggregation ==")
    for opp in find_aggregation_opportunities(store, machine)[:5]:
        print(
            f"  {opp.layer:9s} {opp.interface:6s} {opp.direction:5s}: "
            f"{opp.nfiles:7d} files at mean request "
            f"{format_size(opp.mean_request):>9}; aggregate to 4 MiB for "
            f"{opp.speedup:6.1f}x ({opp.saved_seconds:,.0f} s saved)"
        )

    # ---- staging --------------------------------------------------------
    print("\n== Recommendation 3: staging through the in-system layer ==")
    assessment = assess_staging(store, machine, sample=100_000)
    print(
        f"  stageable PFS files: "
        f"{100 * assessment.stageable_file_fraction:.1f}% "
        f"({format_size(assessment.stageable_bytes)} priced)"
    )
    print(
        f"  in-job I/O: direct {assessment.direct_seconds:,.0f} s vs "
        f"staged {assessment.staged_seconds:,.0f} s "
        f"({assessment.in_job_speedup:.1f}x)"
    )
    print(
        f"  movement outside the window: "
        f"{assessment.movement_seconds:,.0f} s; worthwhile: "
        f"{assessment.worthwhile}"
    )

    # ---- striping (Cori) -------------------------------------------------
    print("\n== §5 future work: Lustre striping defaults (Cori) ==")
    fs = LustreFilesystem()
    sizes = np.array([1 * GB, 10 * GB, 100 * GB, 1000 * GB])
    nprocs = np.array([64, 256, 1024, 4096])
    for rec in recommend_striping(sizes, nprocs, cori().pfs, fs):
        print(
            f"  {format_size(rec.file_size):>9} file, {rec.nprocs:5d} ranks: "
            f"stripe {rec.current_stripe_count} -> "
            f"{rec.recommended_stripe_count:3d}  "
            f"({rec.speedup:5.1f}x faster shared reads)"
        )

    # ---- flash wear -------------------------------------------------------
    print("\n== Recommendation 4: flash wear on the in-system layer ==")
    rng = np.random.default_rng(5)
    streams = []
    # A sequential log writer, a rewrite-heavy scratch file, a random writer.
    seq = list(range(0, 200 * 4096, 4096))
    streams.append((1, 0, make_ops([OP_WRITE] * len(seq), seq, [4096] * len(seq),
                                   np.arange(len(seq), dtype=float), [0.001] * len(seq))))
    rw = [0, 0, 0, 0, 0] * 40
    streams.append((2, 0, make_ops([OP_WRITE] * len(rw), rw, [8192] * len(rw),
                                   np.arange(len(rw), dtype=float), [0.001] * len(rw))))
    rnd = (rng.permutation(200) * 65536).tolist()
    streams.append((3, 0, make_ops([OP_WRITE] * len(rnd), rnd, [512] * len(rnd),
                                   np.arange(len(rnd), dtype=float), [0.001] * len(rnd))))
    for report in rank_flash_wear(streams):
        print(
            f"  record {report.record_id}: WAF "
            f"{report.write_amplification:5.2f} ({report.severity}); "
            f"rewrite {100 * report.ext.rewrite_ratio:5.1f}%, random "
            f"{100 * report.ext.random_write_fraction:5.1f}%"
        )
        for m in report.mitigations:
            print(f"      -> {m}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
