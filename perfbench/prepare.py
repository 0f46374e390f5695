"""Builds the inputs of ``serve_live`` and ``fleet_whatif``.

Run as a child interpreter by ``run.py`` so that generating the input
population never counts toward the measured process's peak RSS::

    python3 perfbench/prepare.py serve_live --seed 7 --seconds 30 --out DIR

Both workloads use summit stores of a fixed row budget, each a seeded
draw of whole jobs from a ``paper_mix`` population (see
``common.sample_jobs``). ``serve_live`` also gets an NDJSON tail of
materialized logs from jobs the draw left out, one line per log and
one log per append of a ``--seconds`` loop; ``fleet_whatif`` gets a
three-member month catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.common import sample_jobs  # noqa: E402
from perfbench.serve_live import APPENDS_PER_S  # noqa: E402
from repro.api import generate_store, save_store  # noqa: E402

#: The population a sized store is drawn from: at this scale every seed
#: tried holds at least twice ``STORE_ROWS`` rows.
POOL_SCALE = 4e-4
#: Rows per sized store, and the scale of a summit store that size.
STORE_ROWS = 164_000
STORE_SCALE = 2e-4
#: The serve tail takes the left-out logs closest to ``TAIL_LOG_ROWS``
#: rows, so an append costs about the same whatever the seed. Left-out
#: logs cluster between 150 and 330 rows; at 150 some seeds had too few
#: near it and appended logs of up to 200 rows, while every seed tried
#: had 60 within 220 +- 6. Materializing one such log takes about 0.3 s.
TAIL_LOG_ROWS = 220
FLEET_MEMBERS = 3


def sized_store(seed: int):
    pool = generate_store("summit", spec="paper_mix", scale=POOL_SCALE, seed=seed)
    return pool, sample_jobs(pool, STORE_ROWS, STORE_SCALE, np.random.default_rng(seed))


def prepare_serve(seed: int, seconds: int, out: Path) -> dict:
    from repro.instrument.runtime import LogMaterializer
    from repro.platforms import summit
    from repro.stream import dump_line

    pool, store = sized_store(seed)
    save_store(store, str(out / "serve.store"), layout="raw")
    left_out = ~np.isin(pool.files["job_id"], store.jobs["job_id"])
    if not left_out.any():
        left_out[:] = True
    ids, counts = np.unique(pool.files["log_id"][left_out], return_counts=True)
    nearest = np.argsort(np.abs(counts - TAIL_LOG_ROWS), kind="stable")
    picked = np.sort(ids[nearest[:APPENDS_PER_S * seconds]])
    materializer = LogMaterializer(summit(), pool)
    with open(out / "tail.ndjson", "w", encoding="utf-8") as fh:
        for log_id in picked:
            fh.write(dump_line(materializer.materialize(int(log_id))))
    return {"serve.store": len(store.files), "tail.ndjson": int(counts[nearest[:len(picked)]].sum())}


def prepare_fleet(seed: int, seconds: int, out: Path) -> dict:
    from repro.federation import StoreCatalog

    catalog = StoreCatalog.init(str(out / "fleet.json"))
    rows = {}
    for i in range(FLEET_MEMBERS):
        _, store = sized_store(seed + i)
        path = out / f"m{i}.store"
        save_store(store, str(path), layout="raw")
        catalog.add_store(f"m{i}", str(path), facility="olcf", period=f"2020-{i + 1:02d}")
        rows[f"m{i}"] = len(store.files)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("serve_live", "fleet_whatif"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    os.makedirs(out, exist_ok=True)
    prepare = prepare_serve if args.workload == "serve_live" else prepare_fleet
    rows = prepare(args.seed, args.seconds, out)
    with open(out / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump({"rows": rows}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
