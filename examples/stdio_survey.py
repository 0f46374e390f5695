#!/usr/bin/env python
"""Survey STDIO usage the way §3.3/§3.4 of the paper does.

Generates a synthetic Summit year, then reports:

* interface shares per layer (Table 6 view) and the STDIO:POSIX ratio on
  the node-local layer;
* which science domains move data through STDIO (Figure 10 view) and the
  file extensions involved (the paper's .rst/.dat/.vol observation);
* POSIX-vs-STDIO shared-file bandwidth medians per transfer-size bin
  (Figure 11 view) with the paper's Recommendation 6 conclusion.

Run:  python examples/stdio_survey.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    interface_usage,
    performance_by_bin,
    stdio_domain_usage,
)
from repro.analysis.performance import panel
from repro.platforms.interfaces import IOInterface
from repro.units import format_count, format_size
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator


def main() -> int:
    gen = WorkloadGenerator("summit", GeneratorConfig(scale=5e-4))
    store = gen.generate(20220627, shadows=True)
    print(f"generated {store!r}\n")

    # --- interface shares (Table 6 view) --------------------------------
    usage = interface_usage(store)
    print("interface usage (full-year extrapolation):")
    for layer in ("insystem", "pfs"):
        per = usage.counts[layer]
        print(
            f"  {layer:9s}: POSIX {format_count(per['POSIX'] / store.scale):>7} "
            f"MPI-IO {format_count(per['MPI-IO'] / store.scale):>7} "
            f"STDIO {format_count(per['STDIO'] / store.scale):>7}"
        )
    print(f"  STDIO share overall: {100 * usage.stdio_share():.1f}% "
          "(paper: 39.8%)")
    print(f"  STDIO:POSIX on SCNL: {usage.stdio_over_posix('insystem'):.2f}x "
          "(paper: 4.37x)\n")

    # --- domains and extensions (Figure 10 view) ------------------------
    domains = stdio_domain_usage(store)
    print("STDIO transfer by domain (top 6 by volume):")
    ranked = sorted(
        ((d, r + w) for d, (r, w) in domains.volumes.items() if d),
        key=lambda kv: -kv[1],
    )
    for domain, volume in ranked[:6]:
        print(f"  {domain:18s} {format_size(volume / store.scale)}")
    stdio_rows = store.files[
        store.files["interface"] == int(IOInterface.STDIO)
    ]
    ext_codes, counts = np.unique(
        stdio_rows["ext"][stdio_rows["ext"] >= 0], return_counts=True
    )
    ranked_ext = sorted(
        zip(ext_codes, counts), key=lambda kv: -kv[1]
    )[:5]
    total = counts.sum()
    print("\ntop STDIO file extensions "
          "(paper: ~70% .rst/.dat/.vol on Cori):")
    for code, n in ranked_ext:
        print(f"  .{store.extensions[code]:6s} {100 * n / total:5.1f}%")

    # --- performance (Figure 11 view / Recommendation 6) ----------------
    panels = performance_by_bin(store)
    print("\nshared-file bandwidth medians, POSIX vs STDIO (MB/s):")
    for layer in ("pfs", "insystem"):
        for direction in ("read", "write"):
            p = panel(panels, layer, direction)
            for bin_label in ("100M_1G", "1G_10G", "10G_100G"):
                i = p.bin_labels.index(bin_label)
                posix, stdio = p.boxes["POSIX"][i], p.boxes["STDIO"][i]
                if posix.n == 0 or stdio.n == 0:
                    continue
                print(
                    f"  {layer:9s} {direction:5s} {bin_label:8s}: "
                    f"POSIX {posix.median / 1e6:9.1f}  "
                    f"STDIO {stdio.median / 1e6:8.1f}  "
                    f"ratio {posix.median / stdio.median:6.2f}x"
                )
    print(
        "\nRecommendation 6: STDIO consistently delivers lower bandwidth "
        "than POSIX across\ntransfer sizes — aggregate text I/O inside "
        "higher-level libraries instead of\nrelying on per-call fprintf/fscanf."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
