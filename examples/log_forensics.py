#!/usr/bin/env python
"""Work with on-disk Darshan-style logs like a facility operator would.

Materializes a handful of application-instance logs from a generated
population, writes them as self-describing binary files, then plays the
role of a downstream analysis tool: parse the directory, validate every
log, and compute per-layer / per-interface statistics from the parsed
records alone (no access to the generator).

Run:  python examples/log_forensics.py [outdir]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.darshan import read_log, validate_log, write_log
from repro.darshan.constants import ModuleId
from repro.darshan.summary import render_log_summary
from repro.instrument import LogMaterializer
from repro.platforms import cori
from repro.store.ingest import ingest_logs
from repro.units import format_size
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-logs-"
    )
    os.makedirs(outdir, exist_ok=True)

    machine = cori()
    gen = WorkloadGenerator("cori", GeneratorConfig(scale=5e-5))
    store = gen.generate(1234, shadows=True)
    materializer = LogMaterializer(machine, store)

    # --- write a directory of logs --------------------------------------
    nlogs = 12
    paths = []
    for log_id in materializer.log_ids(nlogs):
        log = materializer.materialize(int(log_id))
        path = os.path.join(outdir, f"job{log.job.job_id}_log{log_id}.rdshn")
        write_log(log, path)
        paths.append(path)
    sizes = [os.path.getsize(p) for p in paths]
    print(f"wrote {len(paths)} logs to {outdir} "
          f"({format_size(sum(sizes))} total, "
          f"avg {format_size(sum(sizes) / len(sizes))})")

    # --- downstream tool: parse, validate, analyze ----------------------
    logs = []
    for path in paths:
        log = read_log(path)
        validate_log(log)
        logs.append(log)
    print(f"parsed and validated {len(logs)} logs")

    ingested = ingest_logs(
        logs, "cori", machine.mount_table(), domains=store.domains
    )
    files = ingested.files
    print(f"\nrecovered {len(files)} file records:")
    for module in (ModuleId.POSIX, ModuleId.MPIIO, ModuleId.STDIO):
        sel = files[files["interface"] == int(module)]
        if not len(sel):
            continue
        print(
            f"  {module.prefix:6s}: {len(sel):5d} records, "
            f"read {format_size(int(sel['bytes_read'].sum()))}, "
            f"written {format_size(int(sel['bytes_written'].sum()))}"
        )
    for layer_name, code in (("Cori Scratch", 0), ("CBB", 1)):
        sel = files[files["layer"] == code]
        print(f"  {layer_name:13s}: {len(sel):5d} records")

    # A darshan-parser-style summary of the busiest log.
    busiest = max(logs, key=lambda l: sum(l.total_bytes()))
    print("\nsummary of the busiest log:")
    print(render_log_summary(busiest, top_k=3))

    # Lustre layout records made it through the round trip too.
    lustre_records = sum(len(log.records(ModuleId.LUSTRE)) for log in logs)
    print(f"\nLUSTRE layout records: {lustre_records} "
          "(stripe size/count/offset per PFS file)")
    sample = next(
        rec for log in logs for rec in log.records(ModuleId.LUSTRE)
    )
    print(
        f"  sample: stripe_size={format_size(sample.get('STRIPE_SIZE'))}, "
        f"stripe_width={int(sample.get('STRIPE_WIDTH'))}, "
        f"OSTs={int(sample.get('OSTS'))}, MDTs={int(sample.get('MDTS'))}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
