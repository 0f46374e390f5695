"""Pinned bytes of merged, canonicalized and filtered stores.

The merge and filter tests elsewhere check row counts, names and
equivalences between two paths that both move rows the same way, so a
drift in how whole rows are copied passes them. This module pins the
raw bytes instead: ``tests/goldens/merge_digests.json`` holds the
SHA-256 of ``files.tobytes()`` and ``jobs.tobytes()`` and both row
counts for

* a fleet merge (``remap_log_ids`` and ``remap_job_ids``) of three
  summit members (scale 2e-4, seeds 7, 10 and 11), from memory and from
  memory-mapped raw ``.store`` directories;
* a shard merge of one summit store cut into three shards that share
  job ids and carry differently ordered domain and extension catalogs,
  so every code column goes through a non-identity lookup table;
* ``canonicalize`` of the fleet merge;
* ``filter``, ``filter_jobs`` and ``concat`` on a cori store.

Regenerate the golden file only for an intended change of merged or
filtered rows::

    PYTHONPATH=src python -m tests.test_merge_digests
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

import repro
from repro.store.io import load_store, save_store
from repro.store.merge import canonicalize, merge_stores
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_PFS

GOLDEN_PATH = Path(__file__).parent / "goldens" / "merge_digests.json"
SCALE = 2e-4
FLEET_SEEDS = (7, 10, 11)
NSHARDS = 3
CASES = (
    "fleet_merge", "shard_merge", "fleet_canonicalize",
    "cori_filter", "cori_filter_jobs", "cori_concat",
)


@lru_cache(maxsize=None)
def _store(platform: str, seed: int) -> RecordStore:
    return repro.generate_store(platform, scale=SCALE, seed=seed)


def digest(store: RecordStore) -> dict:
    return {
        "files_rows": len(store.files),
        "jobs_rows": len(store.jobs),
        "files_sha256": hashlib.sha256(store.files.tobytes()).hexdigest(),
        "jobs_sha256": hashlib.sha256(store.jobs.tobytes()).hexdigest(),
    }


def fleet_members() -> list[RecordStore]:
    return [_store("summit", seed) for seed in FLEET_SEEDS]


def fleet_merge(members) -> RecordStore:
    return merge_stores(members, remap_log_ids=True, remap_job_ids=True)


def _recode(codes: np.ndarray, old: tuple, new: tuple) -> np.ndarray:
    """Re-express catalog codes of ``old`` as codes of ``new`` (−1 kept)."""
    lut = np.array([-1] + [new.index(name) for name in old], dtype=np.int16)
    return lut[codes.astype(np.int32) + 1]


def shards() -> list[RecordStore]:
    """One summit store cut into contiguous row shards, ingest style.

    The generator lays rows out by (archetype, group, block), so a job's
    rows land in several shards and the shards share job ids. Each
    shard numbers its logs densely from 0 and lists its jobs with the
    logs it saw; shards 1 and 2 reorder (and shard 2 extends) the
    domain and extension catalogs.
    """
    src = _store("summit", FLEET_SEEDS[0])
    dom, ext = src.domains, src.extensions
    catalogs = [
        (dom, ext),
        (dom[::-1], ext[::-1]),
        (("unused",) + dom[3:] + dom[:3], ext[5:] + ext[:5]),
    ]
    bounds = np.linspace(0, len(src.files), NSHARDS + 1).astype(int)
    out = []
    for i, (sdom, sext) in enumerate(catalogs):
        files = src.files[bounds[i] : bounds[i + 1]].copy()
        logs, dense = np.unique(files["log_id"], return_inverse=True)
        files["log_id"] = dense
        files["domain"] = _recode(files["domain"], dom, sdom)
        files["ext"] = _recode(files["ext"], ext, sext)
        # generated log ids are job_id << 20 | n
        log_jobs, nlogs = np.unique(logs >> 20, return_counts=True)
        jobs = src.jobs[np.isin(src.jobs["job_id"], log_jobs)].copy()
        assert (jobs["job_id"] == log_jobs).all()
        jobs["nlogs"] = nlogs
        jobs["domain"] = _recode(jobs["domain"], dom, sdom)
        out.append(
            RecordStore(
                src.platform, files, jobs, domains=sdom, extensions=sext,
                scale=src.scale,
            )
        )
    return out


def filtered() -> dict[str, RecordStore]:
    store = _store("cori", FLEET_SEEDS[0])
    f, j = store.files, store.jobs
    mask = (f["layer"] == LAYER_PFS) & (f["record_id"] % 3 != 0)
    return {
        "filter": store.filter(mask),
        "filter_jobs": store.filter_jobs(j["job_id"] % 2 == 0),
        "concat": RecordStore.concat(
            [store.filter(~mask), store.filter_jobs(j["job_id"] % 3 == 1), store]
        ),
    }


def cases() -> dict[str, dict]:
    fleet = fleet_merge(fleet_members())
    out = {
        "fleet_merge": digest(fleet),
        "shard_merge": digest(merge_stores(shards(), remap_log_ids=True)),
        "fleet_canonicalize": digest(canonicalize(fleet)),
    }
    out.update({f"cori_{k}": digest(v) for k, v in filtered().items()})
    assert sorted(out) == sorted(CASES)
    return out


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    golden = _golden()
    assert golden["scale"] == SCALE and golden["fleet_seeds"] == list(FLEET_SEEDS)
    assert sorted(golden["cases"]) == sorted(CASES)


def test_fleet_merge_matches_golden():
    assert digest(fleet_merge(fleet_members())) == _golden()["cases"]["fleet_merge"]


def test_fleet_merge_of_mapped_members_matches_golden(tmp_path):
    members = []
    for i, store in enumerate(fleet_members()):
        path = str(tmp_path / f"m{i}.store")
        save_store(store, path)
        members.append(load_store(path))
    assert all(isinstance(m.files, np.memmap) for m in members)
    assert digest(fleet_merge(members)) == _golden()["cases"]["fleet_merge"]


def test_shard_merge_matches_golden():
    parts = shards()
    # the lookup tables are not the identity, and job ids repeat
    assert len({p.domains for p in parts}) == NSHARDS
    assert len({p.extensions for p in parts}) == NSHARDS
    ids = np.concatenate([p.jobs["job_id"] for p in parts])
    assert len(np.unique(ids)) < len(ids)
    merged = merge_stores(parts, remap_log_ids=True)
    assert digest(merged) == _golden()["cases"]["shard_merge"]


def test_canonicalize_matches_golden():
    canon = canonicalize(fleet_merge(fleet_members()))
    assert digest(canon) == _golden()["cases"]["fleet_canonicalize"]


def test_filter_and_concat_match_golden():
    golden = _golden()["cases"]
    for name, store in filtered().items():
        assert digest(store) == golden[f"cori_{name}"], name


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_PATH.write_text(
        json.dumps(
            {"scale": SCALE, "fleet_seeds": list(FLEET_SEEDS), "cases": cases()},
            indent=1, sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
