"""The differential oracle: every route to an exhibit gives the cold answer.

:data:`PATHS` names the routes, on both small stores; the reference is
each query run cold on a ``fresh_store``, once per (platform, query). A
store-level path (``build``) must reproduce the source store's table
bytes, in stored order, and catalogs, which answers every query. A
result-level path (``open``) is checked query by query with
``assert_equivalent``; ``appended`` checks every query after every append
against a batch build of the same log prefix. A path runs every query
its ``supports`` rule, a predicate on spec flags, accepts. DESIGN.md §7
("The differential oracle") says how to add a path.
"""

from __future__ import annotations

import contextlib
import itertools
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.api import run_query
from repro.federation import FederationExecutor
from repro.platforms import get_platform
from repro.serve import BackgroundServer, QueryEngine, ServeClient
from repro.serve.registry import default_registry, serialize_result
from repro.spec import generate_from_spec
from repro.stream import StreamIngestor
from repro.whatif import materialize, scenario_catalog

from tests.conftest import (
    NEUTRAL_POINTS, SEED, apply_folding, assert_equivalent,
    assert_stores_identical, batch_store, build_catalog, empty_like,
    fresh_store, partition_by_month,
)

PLATFORMS = ("summit", "cori")
REGISTRY = default_registry()


@dataclass(frozen=True)
class Path:
    #: Store-level: ``source store -> store`` equal to it byte for byte.
    build: Callable | None = None
    #: Result-level: ``(source store, tmp dir, exit stack) -> run(name)``.
    open: Callable | None = None
    #: The queries the path answers, as a rule over spec flags.
    supports: Callable = lambda spec: True
    #: Answers arrive in wire form, so the reference is serialized.
    wire: bool = False


def _federated(k):
    def open_(store, tmp, stack):
        catalog = build_catalog(tmp, partition_by_month(store, k))
        return stack.enter_context(FederationExecutor(catalog)).query
    return open_


def _wire(store, tmp, stack):
    engine = stack.enter_context(QueryEngine(store, max_workers=2))
    server = stack.enter_context(BackgroundServer(engine))
    return stack.enter_context(ServeClient(server.host, server.port)).query


def _neutral_twin(name):
    return lambda store: materialize(store, name, NEUTRAL_POINTS[name])


def _paper_mix(store):
    return generate_from_spec("paper_mix", platform=store.platform,
                              scale=store.scale, seed=SEED)


PATHS = {
    "appended": Path(),
    "federated_k2": Path(open=_federated(2), supports=lambda s: s.mergeable),
    "federated_k3": Path(open=_federated(3), supports=lambda s: s.mergeable),
    "wire": Path(open=_wire, wire=True),
    "paper_mix": Path(build=_paper_mix),
    **{f"twin_{name}": Path(build=_neutral_twin(name))
       for name in scenario_catalog()},
}

#: Platform by platform, path by path: each runner opens once.
RESULT_CASES = [
    (platform, path, name)
    for platform in PLATFORMS
    for path, route in PATHS.items() if route.open
    for name, spec in REGISTRY.items() if route.supports(spec)
]
STORE_CASES = [
    (platform, path)
    for platform in PLATFORMS for path, route in PATHS.items() if route.build
]
APPENDED_QUERIES = [
    name for name, spec in REGISTRY.items() if PATHS["appended"].supports(spec)
]


@pytest.fixture(scope="module")
def oracle(summit_store_small, cori_store_small, tmp_path_factory):
    """The cold reference stores, and the one open result-level runner."""
    sources = {"summit": summit_store_small, "cori": cori_store_small}
    # A fresh store's context answers each query cold once, then from memo.
    cold = {platform: fresh_store(s) for platform, s in sources.items()}

    with contextlib.ExitStack() as stack:
        opened = {}

        def runner(platform, path):
            if (platform, path) not in opened:
                stack.close()  # the previous runner, and its member files
                opened.clear()
                tmp = tmp_path_factory.mktemp(f"{platform}-{path}")
                stack.callback(shutil.rmtree, tmp)
                opened[platform, path] = PATHS[path].open(
                    sources[platform], tmp, stack
                )
            return opened[platform, path]

        yield cold, runner


@pytest.mark.parametrize("platform, path, name", RESULT_CASES)
def test_result_path(oracle, platform, path, name):
    cold, runner = oracle
    want = run_query(cold[platform], name)
    if PATHS[path].wire:
        want = serialize_result(REGISTRY[name], want)
    got = runner(platform, path)(name)
    assert_equivalent(got, want, f"{platform}:{path}:{name}")


@pytest.mark.parametrize("platform, path", STORE_CASES)
def test_store_path(platform, path, request):
    source = request.getfixturevalue(f"{platform}_store_small")
    built = PATHS[path].build(source)
    assert_stores_identical(built, source, f"{platform}:{path}", canonical=False)


def _schedule(kind, n):
    """Batch sizes for ``n`` logs: the two extremes back to back, or a
    seeded random mix of single logs and large batches."""
    if kind == "extremes":
        return [n // 2, 1, 1, n - n // 2 - 2]
    rng = np.random.default_rng(SEED + int(kind[-1]))
    sizes, remaining = [], n
    while remaining:
        size = int(rng.choice([1, 1, 2, rng.integers(3, max(4, n // 2 + 1))]))
        sizes.append(min(size, remaining))
        remaining -= sizes[-1]
    return sizes


@pytest.mark.parametrize("platform, schedule", [
    (platform, schedule) for platform in PLATFORMS
    for schedule in ("random0", "random1", "extremes")
])
def test_appended_path(platform, schedule, request):
    """Every query after every append, against a cold build of the
    prefix; ``apply_folding`` proves each warm foldable result folded."""
    machine = get_platform(platform)
    logs = request.getfixturevalue(f"{platform}_logs")
    src = request.getfixturevalue(f"{platform}_store_small")
    live = empty_like(src)
    ingestor = StreamIngestor(live, machine.mount_table())
    applied, context = 0, None
    for size in _schedule(schedule, len(logs)):
        apply_folding(ingestor, logs[applied:applied + size])
        applied += size
        # Warmed after the first batch: every later append takes the
        # delta path, not a cold rebuild.
        context = live.analysis() if context is None else context
        assert live.analysis() is context, "append must not invalidate"
        cold = batch_store(logs[:applied], machine, src)
        where = f"{platform}:appended:prefix={applied}"
        assert_stores_identical(live, cold, where, canonical=False)
        for name in APPENDED_QUERIES:
            assert_equivalent(run_query(live, name), run_query(cold, name),
                              f"{where}:{name}")
    assert applied == len(logs)


def test_every_triple_is_run_or_excluded():
    """Each (platform, path, query) triple runs, or its path's spec-flag
    rule excludes it: a new registry query needs no edit here."""
    run = set(RESULT_CASES) | {
        (p, "appended", n) for p in PLATFORMS for n in APPENDED_QUERIES
    }
    # A byte-identical store answers every query.
    run |= {(p, path, n) for p, path in STORE_CASES for n in REGISTRY}
    for triple in itertools.product(PLATFORMS, PATHS, REGISTRY):
        _, path, name = triple
        assert triple in run or not PATHS[path].supports(REGISTRY[name]), (
            f"{triple} is neither run nor excluded by its path's rule"
        )
