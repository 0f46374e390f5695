"""Shared fixtures and helpers: small generated stores, platforms, studies.

Stores are session-scoped — generation is the expensive step, and every
analysis test can share the same synthetic population read-only. The
helpers here are the only ones test modules share; no test module
imports from another.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.context import foldable_merge
from repro.core import CharacterizationStudy, StudyConfig
from repro.federation import StoreCatalog
from repro.instrument.runtime import LogMaterializer
from repro.obs.tracer import Tracer, set_tracer
from repro.platforms import cori, summit
from repro.store.ingest import ingest_logs
from repro.store.io import save_store
from repro.store.merge import canonicalize
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

#: Seed used across the suite; tests that need a different stream derive
#: their own generators.
SEED = 20220627

#: Small scale for unit-level store tests. 5e-4 guarantees at least one
#: SCNL-pipeline job on Summit (floor(0.0095 * 141) = 1), so in-system
#: analyses always have data.
SMALL_SCALE = 5e-4
SHAPE_SCALE = 1e-3

#: Every what-if scenario's neutral point: parameters under which the
#: plan must change nothing (the "calibrated instrument reads zero"
#: gate). ``test_whatif`` keeps it exhaustive over the scenario catalog.
NEUTRAL_POINTS = {
    "identity": {},
    "stripe": {"factor": 1.0},
    "bb_offload": {"enabled": 0},
    "ost_fault": {"servers_offline": 0.0, "rebuild_overhead": 0.0},
    "bb_drain": {"servers_offline": 0.0, "rebuild_overhead": 0.0},
    "contention": {"factor": 1.0},
}

#: Logs per platform the append schedules stream. Materialization is the
#: slow part; the session-scoped log fixtures pay it once.
N_LOGS = 18

GOLDEN_PATH = Path(__file__).parent / "goldens" / "analysis_results.json"


def fresh_store(store: RecordStore) -> RecordStore:
    """A new store over ``store``'s arrays, with an empty analysis cache.

    A store has one analysis context, so a test that needs a cold
    recompute (rather than the shared store's memoized results) queries
    a fresh store over the same rows.
    """
    return RecordStore(
        store.platform, store.files, store.jobs,
        domains=store.domains, extensions=store.extensions,
        scale=store.scale, schema_version=store.schema_version,
    )


def assert_stores_identical(a, b, where="store", *, canonical=True):
    """Byte-identical stores, tables in canonical row order or, with
    ``canonical=False``, as stored (row order can move float sums)."""
    if canonical:
        a, b = canonicalize(a), canonicalize(b)
    assert a.platform == b.platform, where
    assert a.scale == b.scale, where
    assert a.domains == b.domains, f"{where}: domain catalogs differ"
    assert a.extensions == b.extensions, f"{where}: extension catalogs differ"
    np.testing.assert_array_equal(a.files, b.files, err_msg=f"{where}.files")
    np.testing.assert_array_equal(a.jobs, b.jobs, err_msg=f"{where}.jobs")


def assert_equivalent(a, b, where="result"):
    """Recursive bit-equality, treating NaN as equal to NaN."""
    assert type(a) is type(b), f"{where}: {type(a)} vs {type(b)}"
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            assert_equivalent(
                getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
            )
    elif isinstance(a, dict):
        assert list(a.keys()) == list(b.keys()), f"{where}: keys differ"
        for k in a:
            assert_equivalent(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{where}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_equivalent(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where, strict=True)
    elif isinstance(a, float):
        assert (math.isnan(a) and math.isnan(b)) or a == b, f"{where}: {a} vs {b}"
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


# -- the pinned-results golden (tests/goldens/analysis_results.json) ---------
def pin(value) -> object:
    """The JSON form a result is pinned in, recursively."""
    if dataclasses.is_dataclass(value):
        return {f.name: pin(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        # Pairs, not a JSON object: key order and key types are pinned.
        return [[pin(k), pin(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [pin(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise TypeError("object arrays have no stable bytes")
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
        }
    if isinstance(value, float):  # numpy's float64 included
        return float.hex(value)
    if isinstance(value, (int, str)):  # bools and int or str enums included
        return value
    raise TypeError(f"no pinned form for {type(value).__name__}")


def rendered_rows(result) -> list:
    """A tabular result's report rows (a list result renders per item)."""
    items = result if isinstance(result, (list, tuple)) else [result]
    return [row for item in items for row in item.to_rows()]


@functools.cache
def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# -- appends: stores grown log by log ----------------------------------------
def empty_like(src: RecordStore) -> RecordStore:
    """An empty store on ``src``'s platform, domains and scale."""
    return RecordStore(
        src.platform, empty_files(0), empty_jobs(0),
        domains=src.domains, scale=src.scale,
    )


def batch_store(logs, machine, src: RecordStore) -> RecordStore:
    """``logs`` ingested in one batch: the cold twin of a streamed store."""
    built = ingest_logs(
        logs, src.platform, machine.mount_table(),
        domains=src.domains, scale=src.scale,
    )
    # A fresh store around copies: nothing shared with the live one.
    return RecordStore(
        built.platform, built.files.copy(), built.jobs.copy(),
        domains=built.domains, extensions=built.extensions, scale=built.scale,
    )


def _folded_keys(context) -> set:
    """Memo keys of the foldable results ``context`` holds."""
    return {
        k for k in context._memo
        if isinstance(k, tuple) and k[0] == "result" and foldable_merge(k[1])
    }


def apply_folding(ingestor, logs):
    """Apply ``logs`` and prove each warm foldable result folded: a fold
    that raised would recompute cold and still compare equal."""
    context = ingestor.store._analysis
    if context is None:  # nothing warm yet: a plain append
        ingestor.apply(logs)
        return
    warmed = _folded_keys(context)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        ingestor.apply(logs)
    finally:
        set_tracer(previous)
    fallbacks = [
        r.args for r in tracer.records()
        if r.name == "analysis.delta_fallback"
    ]
    assert not fallbacks, fallbacks
    assert ingestor.store.analysis() is context and not context.stale
    assert warmed <= _folded_keys(context), warmed - _folded_keys(context)


# -- federation: month members in a catalog ----------------------------------
def partition_by_month(store, k):
    """Split a store into k disjoint job populations by start time.

    Stand-ins for per-month ingests: together they cover every job, and
    merged back as independent populations they answer every mergeable
    query exactly as the whole store does.
    """
    order = np.argsort(store.jobs["start_time"], kind="stable")
    parts = []
    for chunk in np.array_split(order, k):
        mask = np.zeros(len(store.jobs), dtype=bool)
        mask[chunk] = True
        parts.append(store.filter_jobs(mask))
    return parts


def build_catalog(tmp_path, stores, labels=None, periods=None, facilities=None):
    """A catalog of ``stores`` saved as raw ``<label>.store`` members."""
    catalog = StoreCatalog.init(str(tmp_path / "fleet.json"))
    for i, store in enumerate(stores):
        label = labels[i] if labels else f"m{i}"
        path = str(tmp_path / f"{label}.store")
        save_store(store, path)
        catalog.add_store(
            label, path, facility=facilities[i] if facilities else "",
            period=periods[i] if periods else f"2020-{i + 1:02d}",
        )
    return catalog


@pytest.fixture(scope="session")
def summit_machine():
    return summit()


@pytest.fixture(scope="session")
def cori_machine():
    return cori()


@pytest.fixture(scope="session")
def summit_store_small():
    gen = WorkloadGenerator("summit", GeneratorConfig(scale=SMALL_SCALE))
    return gen.generate(SEED, shadows=True)


@pytest.fixture(scope="session")
def cori_store_small():
    gen = WorkloadGenerator("cori", GeneratorConfig(scale=SMALL_SCALE))
    return gen.generate(SEED, shadows=True)


@pytest.fixture(scope="session")
def summit_logs(summit_store_small):
    return LogMaterializer(summit(), summit_store_small).materialize_many(N_LOGS)


@pytest.fixture(scope="session")
def cori_logs(cori_store_small):
    return LogMaterializer(cori(), cori_store_small).materialize_many(N_LOGS)


@pytest.fixture(scope="session")
def study():
    """A full study at shape-check scale, shared by integration tests."""
    return CharacterizationStudy(StudyConfig(seed=SEED, scale=SHAPE_SCALE))


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)
