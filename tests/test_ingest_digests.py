"""Pinned bytes of stores ingested from Darshan logs.

The ingest tests elsewhere compare two ingest paths with each other
(sharded against serial, stream against batch, paths against objects),
so a drift that every path shares passes them. This module pins the raw
bytes instead: ``tests/goldens/ingest_digests.json`` holds the SHA-256
of ``files.tobytes()`` and ``jobs.tobytes()``, both row counts and the
extension catalog for

* serial ``ingest_log_paths`` over written summit and cori logs
  materialized from generated stores (scale 5e-5), three of each ten
  touching the in-system layer;
* a cori ingest with a preseeded extension catalog;
* a cori ingest whose domain catalog lacks some of the jobs' domains;
* a log with no file records between two others of the same job;
* a log with only STDIO records;
* a hand-built log off every mount, with hidden, upper-case and
  extension-less file names;
* ``StreamIngestor.apply`` over the cori logs in batches of 1 and 3.

Regenerate the golden file only for an intended change of ingested
rows::

    PYTHONPATH=src python -m tests.test_ingest_digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.darshan.constants import ModuleId
from repro.darshan.counters import module_counters, module_fcounters
from repro.darshan.format import write_log
from repro.darshan.log import DarshanLog
from repro.darshan.records import FileRecord, JobRecord, NameRecord
from repro.instrument import LogMaterializer
from repro.platforms import cori, summit
from repro.store.ingest import ingest_log_paths, ingest_logs
from repro.store.recordstore import RecordStore
from repro.store.schema import (
    LAYER_INSYSTEM,
    LAYER_OTHER,
    empty_files,
    empty_jobs,
)
from repro.stream import StreamIngestor
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

GOLDEN_PATH = Path(__file__).parent / "goldens" / "ingest_digests.json"
SCALE = 5e-5
SEED = 7
NLOGS = 10
#: Logs (of the NLOGS) picked for touching the in-system layer.
NINSYSTEM = 3
#: Ingest's row order within a log: module-major, record order.
ROW_MODULES = (ModuleId.POSIX, ModuleId.MPIIO, ModuleId.STDIO)
MACHINES = {"summit": summit, "cori": cori}
#: Seen (in another order) and unseen extensions, ahead of first-seen ones.
PRESEEDED = ("zzz", "h5", "out", "nc")
CASES = (
    "summit_paths", "cori_paths", "cori_preseeded_extensions",
    "cori_foreign_domains", "empty_log", "stdio_only_log", "unmounted_log",
    "stream_batches_1", "stream_batches_3",
)


@lru_cache(maxsize=None)
def _population(platform: str) -> tuple[RecordStore, tuple[DarshanLog, ...]]:
    store = WorkloadGenerator(platform, GeneratorConfig(scale=SCALE)).generate(
        SEED, shadows=True
    )
    mat = LogMaterializer(MACHINES[platform](), store)
    files = store.files
    ids = list(mat.log_ids(NLOGS - NINSYSTEM))
    insystem = np.unique(files["log_id"][files["layer"] == LAYER_INSYSTEM])
    ids += [i for i in insystem if i not in ids][:NINSYSTEM]
    return store, tuple(mat.materialize(int(i)) for i in ids)


def _mounts(platform: str):
    return MACHINES[platform]().mount_table()


def digest(store: RecordStore) -> dict:
    return {
        "files_rows": len(store.files),
        "jobs_rows": len(store.jobs),
        "files_sha256": hashlib.sha256(store.files.tobytes()).hexdigest(),
        "jobs_sha256": hashlib.sha256(store.jobs.tobytes()).hexdigest(),
        "extensions": list(store.extensions),
    }


def ingest_paths(platform: str, tmpdir: str) -> RecordStore:
    store, logs = _population(platform)
    paths = []
    for i, log in enumerate(logs):
        path = os.path.join(tmpdir, f"{platform}{i:02d}.darshan")
        write_log(log, path)
        paths.append(path)
    return ingest_log_paths(
        paths, platform, _mounts(platform), domains=store.domains,
        scale=store.scale,
    )


def _ingest_cori(logs, **kwargs) -> RecordStore:
    store, _ = _population("cori")
    kwargs.setdefault("domains", store.domains)
    return ingest_logs(logs, "cori", _mounts("cori"), scale=store.scale, **kwargs)


def _reduced(log: DarshanLog, modules=()) -> DarshanLog:
    """A copy of ``log`` holding only the records of ``modules``."""
    out = DarshanLog(dataclasses.replace(log.job))
    for name in log.name_records().values():
        out.register_name(name)
    for module in modules:
        out.extend(log.records(module))
    return out


def unmounted_log() -> DarshanLog:
    """A hand-built log off every mount, with awkward file names."""
    log = DarshanLog(
        JobRecord(
            job_id=4242, user_id=9, nprocs=4, start_time=10.0, end_time=70.0,
            platform="cori", domain="astrology", metadata={"nnodes": "2"},
        )
    )
    paths = ("/home/u/.bashrc", "/home/u/ARCHIVE.TAR.GZ", "/home/u/notes")
    for i, path in enumerate(paths):
        name = NameRecord.for_path(path)
        log.register_name(name)
        for module in ROW_MODULES[i:]:
            n, nf = len(module_counters(module)), len(module_fcounters(module))
            log.add_record(
                FileRecord(
                    module, name.record_id, rank=i - 1,
                    counters=np.arange(n) * (i + 1) + int(module),
                    fcounters=np.linspace(0.5, 2.5 + i, nf),
                )
            )
    return log


def empty_log_logs() -> list[DarshanLog]:
    _, logs = _population("cori")
    return [logs[0], _reduced(logs[0]), logs[1], logs[0]]


def stdio_only_logs() -> list[DarshanLog]:
    _, logs = _population("cori")
    log = next(lg for lg in logs if lg.records(ModuleId.STDIO))
    return [logs[0], _reduced(log, (ModuleId.STDIO,))]


def stream_build(batch: int) -> RecordStore:
    store, logs = _population("cori")
    target = RecordStore(
        "cori", empty_files(0), empty_jobs(0), domains=store.domains,
        scale=store.scale,
    )
    ingestor = StreamIngestor(target, _mounts("cori"))
    for i in range(0, len(logs), batch):
        ingestor.apply(logs[i : i + batch])
    return target


def case(name: str, tmpdir: str) -> RecordStore:
    store, logs = _population("cori")
    if name.endswith("_paths"):
        return ingest_paths(name.split("_")[0], tmpdir)
    if name == "cori_preseeded_extensions":
        return _ingest_cori(logs, extensions=PRESEEDED)
    if name == "cori_foreign_domains":
        return _ingest_cori(logs, domains=store.domains[:5])
    if name == "empty_log":
        return _ingest_cori(empty_log_logs())
    if name == "stdio_only_log":
        return _ingest_cori(stdio_only_logs())
    if name == "unmounted_log":
        return _ingest_cori([logs[1], unmounted_log()])
    if name.startswith("stream_batches_"):
        return stream_build(int(name.rsplit("_", 1)[1]))
    raise KeyError(name)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    golden = _golden()
    assert golden["scale"] == SCALE and golden["seed"] == SEED
    assert golden["nlogs"] == NLOGS
    assert sorted(golden["cases"]) == sorted(CASES)


def test_case_logs_are_what_they_claim():
    store, cori_logs = _population("cori")
    domains = {log.job.domain for log in cori_logs}
    assert domains - set(store.domains[:5]) and domains & set(store.domains[:5])
    assert not list(empty_log_logs()[1].iter_records())
    assert stdio_only_logs()[1].modules == (ModuleId.STDIO,)
    ingested = _ingest_cori(cori_logs)
    assert set(PRESEEDED) & set(ingested.extensions)
    assert set(PRESEEDED) - set(ingested.extensions)
    assert ingested.jobs["used_bb"].any()
    unmounted = _ingest_cori([unmounted_log()])
    assert (unmounted.files["layer"] == LAYER_OTHER).all()
    assert (unmounted.files["ext"] == -1).sum() == 4


def test_serial_path_ingest_matches_golden(tmp_path):
    golden = _golden()["cases"]
    for name in ("summit_paths", "cori_paths"):
        assert digest(case(name, str(tmp_path))) == golden[name], name


def test_catalog_cases_match_golden(tmp_path):
    golden = _golden()["cases"]
    for name in ("cori_preseeded_extensions", "cori_foreign_domains"):
        assert digest(case(name, str(tmp_path))) == golden[name], name


def test_edge_logs_match_golden(tmp_path):
    golden = _golden()["cases"]
    for name in ("empty_log", "stdio_only_log", "unmounted_log"):
        assert digest(case(name, str(tmp_path))) == golden[name], name


def test_stream_apply_matches_golden(tmp_path):
    golden = _golden()["cases"]
    for name in ("stream_batches_1", "stream_batches_3"):
        assert digest(case(name, str(tmp_path))) == golden[name], name


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    with tempfile.TemporaryDirectory() as tmpdir:
        cases = {name: digest(case(name, tmpdir)) for name in CASES}
    GOLDEN_PATH.write_text(
        json.dumps(
            {"scale": SCALE, "seed": SEED, "nlogs": NLOGS, "cases": cases},
            indent=1, sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
